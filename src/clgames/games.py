"""Game semantics: legality, winners, trees, interpretations, valuations.

A constant game is a prefix-closed set of legal runs plus a total winner
function; illegal runs are lost by whoever moved illegally first.  Formulas
denote games compositionally:

  * choice connectives/quantifiers are resolved by a single numeral move of
    one player;
  * parallel connectives play components side by side with "i."-prefixed
    moves;
  * the branching recurrence !A maintains a bit-string tree of positions:
    the environment may replicate a leaf w with the move "w:", and a move
    "w.alpha" acts in every branch extending node w.

Moves are plain strings.  Inside a recurrence the empty bit string is
serialized as an empty token, so a move at the root branch looks like
".alpha" and a root replication is ":".

The engine evaluates a game by stepping a persistent `State` one labmove
at a time.  Legality is prefix-closed and the recurrence clause is stated
over prelegal runs and their trees, so stepping decides legality and
winners exactly.  `oracle.py` judges whole runs instead, as a cross-check.
A state lists its legal moves as strings (`legal_moves`); the state a move
leads to is built only when the move is stepped, so a choice instantiates
only the component that is chosen.

Each game's formula is compiled into a plan once per run of games of one
formula.  A maximal block of parallel connectives and negations becomes one
flat state: its leaves (atoms, choices, recurrences) are laid out once with
their route prefixes and polarities, so a move reaches its leaf by one route
lookup however deeply the block nests.

The letter games of a random interpretation are built directly as explicit
`FiniteGame` trees, bottom-up, without compiling or stepping any state; each
node is itself a state, so stepping an atom allocates nothing.  Every node
without moves is one of the two shared leaves `ELEMENTARY_WIN` and
`ELEMENTARY_LOSS`, so no game node is changed once it is built.
"""

from __future__ import annotations

import copy
import enum
import json
import random
import re
import sys
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Optional

from . import formula as fm
from .formula import (Atom, Bang, Bot, ChoiceAll, ChoiceConj, ChoiceDisj,
                      ChoiceExists, Const, Dollar, Elem, Formula, Implies,
                      Neg, ParConj, ParDisj, Top, _numeral)

SPADE = "♠"   # reserved always-illegal move symbol
CHOICE_CAP = 3  # listed choices of a constant or of a conjunct of $


class Player(str, enum.Enum):
    T = "T"   # machine
    B = "B"   # environment

    @property
    def opponent(self) -> "Player":
        return Player.B if self is Player.T else Player.T

    def __repr__(self):
        return self.value


T = Player.T
B = Player.B


class Labmove(tuple):
    """A (player, move) pair."""
    __slots__ = ()

    def __new__(cls, player: Player, move: str):
        return super().__new__(cls, (player, move))

    @property
    def player(self) -> Player:
        return self[0]

    @property
    def move(self) -> str:
        return self[1]

    def __repr__(self):
        return f"{self[0].value}{self[1]}"


Run = tuple[Labmove, ...]


def labmoves(*pairs) -> Run:
    return tuple(Labmove(Player(p), m) for p, m in pairs)


# ---------------------------------------------------------------------------
# Bit-string trees and recurrence plumbing

def tree_leaves(tree: frozenset[str]) -> list[str]:
    return sorted(w for w in tree if w + "0" not in tree)


def split_bang_move(move: str):
    """Parse a recurrence-level move.

    Returns ("rep", w) for a replication "w:", ("node", w, rest) for a move
    "w.rest" at node w, or None if the move has neither shape.
    """
    i = 0
    while i < len(move) and move[i] in "01":
        i += 1
    if i < len(move) and move[i] == ":" and i == len(move) - 1:
        return ("rep", move[:i])
    if i < len(move) and move[i] == ".":
        return ("node", move[:i], move[i + 1:])
    return None


def prelegal_and_tree(run: Run) -> tuple[bool, frozenset[str]]:
    """`branch_tree` of a recurrence run given as labmoves."""
    ok, tree = branch_tree((lm.player, split_bang_move(lm.move))
                           for lm in run)
    return ok, frozenset(tree)


def branch_tree(moves) -> tuple[bool, set[str]]:
    """Check recurrence well-formedness and build the branch tree of a run
    given as (player, split_bang_move(move)) pairs.

    A replication "w:" must come from the environment at a current leaf w
    and grows the tree by w0, w1; a move "w.alpha" requires w to be a
    current node.  Returns (False, tree-so-far) at the first violation.
    """
    tree = {""}
    for player, parsed in moves:
        if parsed is None:
            return False, tree
        w = parsed[1]
        if parsed[0] == "rep":
            if player is not B or w not in tree or w + "0" in tree:
                return False, tree
            tree.add(w + "0")
            tree.add(w + "1")
        elif w not in tree:
            return False, tree
    return True, tree


def branch_view(moves, u: str) -> list:
    """The single-branch view along bit string u of a recurrence run given
    as (player, split_bang_move(move)) pairs: the (player, alpha) of each
    move "w.alpha" with w an initial segment of u."""
    return [(player, parsed[2]) for player, parsed in moves
            if parsed is not None and parsed[0] == "node"
            and u.startswith(parsed[1])]


# ---------------------------------------------------------------------------
# Interpretations

def _largest(lo: int, ok: Callable[[int], bool]) -> int:
    """The largest n >= lo with ok(n), for ok true at lo and monotone:
    true up to some n, false from there on."""
    hi = lo + 1
    while ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


# Positive-integer tuples of length a are ordered by (sum, lex).  There are
# comb(s, a) of them with sum <= s, and among those with sum s, comb(s - 1,
# a - 1) - comb(s - f, a - 1) have a first part below f.

def _cantor_tuple(arity: int, rank: int) -> tuple[int, ...]:
    """rank-th (0-based) tuple of positive integers, ordered by (sum, lex)."""
    if arity == 1:
        return (rank + 1,)
    total = 1 + _largest(arity - 1, lambda t: comb(t, arity) <= rank)
    r = rank - comb(total - 1, arity)
    out = []
    for a in range(arity, 1, -1):
        below = comb(total - 1, a - 1)
        first = _largest(1, lambda f: f <= total - a + 1
                         and below - comb(total - f, a - 1) <= r)
        r -= below - comb(total - first, a - 1)
        out.append(first)
        total -= first
    return tuple(out) + (total,)


def _cantor_rank(args: tuple[int, ...]) -> int:
    """Inverse of _cantor_tuple; 0 for the empty tuple."""
    total = sum(args)
    rank = comb(total - 1, len(args)) if args else 0
    for i, first in enumerate(args[:-1]):
        a = len(args) - i
        rank += comb(total - 1, a - 1) - comb(total - first, a - 1)
        total -= first
    return rank


Signature = tuple[tuple[str, int], ...]


def enumerate_grounded_atoms(signature: Signature, k: int) -> tuple[str, tuple[int, ...]]:
    """k-th (1-based) grounded atom under the fixed diagonal enumeration.

    Letters are ordered by (name, arity); round r contributes each letter's
    r-th argument tuple (0-ary letters only contribute at round 0).  The
    atom is computed directly, without walking the atoms before it.
    """
    if k < 1:
        raise ValueError("atom index starts at 1")
    letters = sorted(set(signature))
    if k <= len(letters):
        name, arity = letters[k - 1]
        return name, (1,) * arity
    positive = [lt for lt in letters if lt[1] > 0]
    if not positive:
        # finite signature exhausted: no k-th atom exists
        raise IndexError(f"no grounded atom at index {k}")
    r, i = divmod(k - len(letters) - 1, len(positive))
    name, arity = positive[i]
    return name, _cantor_tuple(arity, r + 1)


def grounded_atom_index(signature: Signature, name: str,
                        args: tuple[int, ...]) -> int:
    """Inverse of enumerate_grounded_atoms (1-based)."""
    letters = sorted(set(signature))
    letter = (name, len(args))
    if letter not in letters or min(args, default=1) < 1:
        raise ValueError(f"no grounded atom {name}{args}")
    r = _cantor_rank(args)
    if r == 0:
        return 1 + letters.index(letter)
    positive = [lt for lt in letters if lt[1] > 0]
    return len(letters) + (r - 1) * len(positive) + positive.index(letter) + 1


class InterpretationError(ValueError):
    """A letter game the interpretation cannot build."""


@dataclass(slots=True)
class Interpretation:
    """Letter games plus the universal-problem base.

    `letters` maps "P/n" to a function from an n-tuple of constants to a
    FiniteGame; a letter's game depends only on its argument tuple.  The
    game for $ is the infinite choice conjunction whose first conjunct is
    `dollar_base` and whose (k+1)-th conjunct interprets the k-th grounded
    atom of the signature under the fixed enumeration.
    """
    letters: dict[str, Callable[[tuple[int, ...]], FiniteGame]]
    dollar_base: FiniteGame = field(default_factory=lambda: ELEMENTARY_WIN)
    _cache: dict = field(default_factory=dict, repr=False)
    signature: Signature = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the letters are fixed at construction, so the signature is too
        self.signature = tuple(
            (name, int(arity)) for name, arity in
            (key.split("/") for key in sorted(self.letters)))

    def letter_game(self, name: str, args: tuple[int, ...]) -> FiniteGame:
        key = f"{name}/{len(args)}"
        if key not in self.letters:
            raise InterpretationError(f"letter {key} not interpreted")
        ck = (name, args)
        if ck not in self._cache:
            try:
                self._cache[ck] = self.letters[key](args)
            except InterpretationError as exc:
                atom = f"{name}({', '.join(map(str, args))})"
                raise InterpretationError(f"no game for {atom}: {exc}") from None
        return self._cache[ck]

    def dollar_component(self, m: int) -> Optional[FiniteGame]:
        """m-th conjunct of the universal problem; None when m exceeds a
        finite signature's atom supply (such a choice is illegal)."""
        if m == 1:
            return self.dollar_base
        try:
            name, args = enumerate_grounded_atoms(self.signature, m - 1)
        except IndexError:
            return None
        return self.letter_game(name, args)


@dataclass(slots=True)
class Valuation:
    assign: dict[str, int] = field(default_factory=dict)
    default: int = 1

    def var(self, name: str) -> int:
        return self.assign.get(name, self.default)

    def term(self, t) -> int:
        t = fm.term(t)
        return t.value if isinstance(t, Const) else self.var(t.name)

    def override(self, name: str, value: int) -> "Valuation":
        new = dict(self.assign)
        new[name] = value
        return Valuation(new, self.default)


@dataclass(slots=True)
class GameRef:
    """A constant game: formula + interpretation + valuation."""
    formula: Formula
    interp: Interpretation
    valuation: Valuation = field(default_factory=Valuation)
    _root: Optional["State"] = field(default=None, init=False, repr=False,
                                     compare=False)

    def root(self) -> "State":
        """The state before any move, built once: states are persistent, so
        every replay of this game can start from it."""
        if self._root is None:
            self._root = initial_state(self.formula, self.interp,
                                       self.valuation)
        return self._root


class IllegalPositionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Game states: legality, winners and legal moves, one labmove at a time

class State:
    """A game after a legal run.

    `step(player, move)` is the state after that labmove, or None when it is
    illegal here; `outcome()` is the winner of a run that ends here;
    `moves_of(player, structural)` lists `player`'s legal moves here as
    strings, built from the components' own legal moves: choices of
    constants stop at CHOICE_CAP, and with `structural` moves inside an
    interpreted atom's own game tree are left out.  Listing builds no
    state; a caller that wants the state a move leads to steps it.  States
    are persistent: `step` never changes a state, so forked plays and
    replicated recurrence branches share them freely.
    """
    __slots__ = ()


_OPPONENT = {T: B, B: T}


@dataclass(slots=True)
class FiniteGame(State):
    """An explicit finite game tree, and the state of an interpreted atom
    (or of top/bot): each node is the position its run leads to.

    `winner` labels the run ending at this node; `moves` maps (player, move)
    to subtrees.  Unlisted moves are illegal (the mover loses).  Leaves are
    shared (see `_LEAF`), so only the code that builds a node fills `moves`.
    """
    winner: Player
    moves: dict[tuple[Player, str], "FiniteGame"] = field(default_factory=dict)

    def step(self, player, move):
        return self.moves.get((player, move))

    def outcome(self):
        return self.winner

    def moves_of(self, player, structural):
        return [] if structural else [m for p, m in self.moves if p is player]


ELEMENTARY_WIN = FiniteGame(T)
ELEMENTARY_LOSS = FiniteGame(B)
# top, bot, the default $ base and every leaf of a random letter game
_LEAF = {T: ELEMENTARY_WIN, B: ELEMENTARY_LOSS}


@dataclass(slots=True)
class _Layout:
    """The static shape of a block of parallel connectives and negations.

    `routes` holds one (route, flipped) pair per leaf: the "i.j."-prefix
    that addresses the leaf, and whether the leaf sits under an odd number
    of negations and antecedents, which swap the players' roles.  `trie`
    maps route components to sub-tries and at the end to leaf indices; a
    block whose root is a leaf has the trie 0 and the empty route.  `tree`
    is the outcome tree, see `_fold`.
    """
    routes: tuple[tuple[str, bool], ...]
    trie: dict | int
    tree: tuple


def _fold(node, leaves, routes) -> Player:
    """The winner at an outcome-tree node (unit, own, subs): `unit` wins
    unless a leaf in `own` or a sub-node in `subs` ends other than `unit`,
    where a flipped leaf ends with its outcome swapped.

    /\\ is won unless a component is lost, and \\/ and -> are lost unless
    a component is won.  So the tree is the block with its negations pushed
    down to the leaves (~(A /\\ B) is lost unless ~A or ~B is won) and each
    connective merged into the one above it when they share a unit."""
    unit, own, subs = node
    for i in own:
        if (leaves[i].outcome() is unit) is routes[i][1]:
            return _OPPONENT[unit]
    for sub in subs:
        if _fold(sub, leaves, routes) is not unit:
            return _OPPONENT[unit]
    return unit


class _BlockState(State):
    """A maximal block of parallel connectives and negations, flattened
    into one state per leaf.  A leaf is an atom, a choice, a recurrence, or
    a nested block once a choice is made; see `_Layout`."""
    __slots__ = ("layout", "leaves")

    def __init__(self, layout: _Layout, leaves: tuple[State, ...]):
        self.layout = layout
        self.leaves = leaves

    def step(self, player, move):
        node = self.layout.trie
        while node.__class__ is dict:
            head, dot, move = move.partition(".")
            node = node.get(head) if dot else None
            if node is None:
                return None
        if self.layout.routes[node][1]:
            player = _OPPONENT[player]
        nxt = self.leaves[node].step(player, move)
        if nxt is None:
            return None
        leaves = self.leaves
        return _BlockState(self.layout,
                           leaves[:node] + (nxt,) + leaves[node + 1:])

    def outcome(self):
        layout = self.layout
        return _fold(layout.tree, self.leaves, layout.routes)

    def moves_of(self, player, structural):
        out = []
        for (route, flipped), leaf in zip(self.layout.routes, self.leaves):
            moves = leaf.moves_of(_OPPONENT[player] if flipped else player,
                                  structural)
            if moves:
                out += [route + m for m in moves]
        return out


class _ChoiceState(State):
    """A choice of `chooser` among `options` components (0: any positive
    numeral) not yet made.  `make(i)` is the i-th component's initial state,
    built only when the choice is played; the chosen component is the rest
    of the game.  Listing a `capped` choice (of a constant or of a conjunct
    of $) stops at CHOICE_CAP."""
    __slots__ = ("chooser", "options", "capped", "make")

    def __init__(self, chooser: Player, options: int, capped: bool,
                 make: Callable[[int], State]):
        self.chooser = chooser
        self.options = options
        self.capped = capped
        self.make = make

    def step(self, player, move):
        if player is not self.chooser:
            return None
        i = _numeral(move)
        if i is None or (self.options and i > self.options):
            return None
        return self.make(i)

    def outcome(self):
        return _OPPONENT[self.chooser]

    def moves_of(self, player, structural):
        if player is not self.chooser:
            return []
        n = self.options
        if self.capped:
            n = min(n, CHOICE_CAP) if n else CHOICE_CAP
        return [str(i) for i in range(1, n + 1)]


class _BangState(State):
    """The branching recurrence: one component state per leaf of the
    bit-string tree.  The tree's nodes are exactly the leaves' prefixes."""
    __slots__ = ("branches",)

    def __init__(self, branches: dict[str, State]):
        self.branches = branches

    def step(self, player, move):
        parsed = split_bang_move(move)
        if parsed is None:
            return None
        if parsed[0] == "rep":
            w = parsed[1]
            if player is not B or w not in self.branches:
                return None
            return self._replicate(w)
        branches = dict(self.branches)
        w, alpha = parsed[1], parsed[2]
        found = False
        for u, state in self.branches.items():
            if u.startswith(w):
                nxt = state.step(player, alpha)
                if nxt is None:
                    return None
                branches[u] = nxt
                found = True
        return _BangState(branches) if found else None

    def outcome(self):
        for state in self.branches.values():
            if state.outcome() is B:
                return B
        return T

    def _replicate(self, w: str) -> "_BangState":
        # both children start from the leaf's state; states are never
        # mutated, so they can share it
        branches = dict(self.branches)
        branches[w + "0"] = branches[w + "1"] = branches.pop(w)
        return _BangState(branches)

    def moves_of(self, player, structural):
        # A move at node w is legal when every leaf under w accepts it, so
        # it is among the legal moves of some leaf under w: try their union,
        # stepping each leaf that did not list the move itself.  A node
        # with one leaf under it lists that leaf's moves as they are.
        branches = self.branches
        out = [u + ":" for u in branches] if player is B else []
        own = {}
        for u, state in branches.items():
            moves = state.moves_of(player, structural)
            if moves:
                own[u] = moves
        if not own:
            return out
        under = {}
        for u in branches:
            for k in range(len(u) + 1):
                under.setdefault(u[:k], []).append(u)
        for w, us in under.items():
            if len(us) == 1:
                moves = own.get(us[0])
                if moves:
                    out += [f"{w}.{m}" for m in moves]
                continue
            for m in {m for u in us if u in own for m in own[u]}:
                if all(m in own.get(u, ()) or branches[u].step(player, m)
                       is not None for u in us):
                    out.append(f"{w}.{m}")
        return out


# A plan is a compiled formula: called with an interpretation and a
# valuation, it returns the initial state of the formula's game.  A game's
# root keeps its plans and layouts alive, so they are slotted.

Plan = Callable[[Interpretation, Valuation], State]


def _top(itp: Interpretation, val: Valuation) -> State:
    return ELEMENTARY_WIN


def _bot(itp: Interpretation, val: Valuation) -> State:
    return ELEMENTARY_LOSS


def _dollar(itp: Interpretation, val: Valuation) -> State:
    # a signature of 0-ary letters grounds each letter once, so $ has the
    # base and one conjunct per letter; any other has infinitely many atoms
    sig = itp.signature
    supply = 0 if any(arity for _, arity in sig) else 1 + len(set(sig))
    return _ChoiceState(B, supply, True, itp.dollar_component)


def _elementary(itp: Interpretation, val: Valuation) -> State:
    raise ValueError("elementary atoms have no game semantics")


@dataclass(slots=True)
class _AtomPlan:
    atom: Atom

    def __call__(self, itp, val):
        return itp.letter_game(self.atom.letter,
                               tuple(val.term(t) for t in self.atom.args))


@dataclass(slots=True)
class _ChoicePlan:
    """A choice of `chooser` among the components' plans."""
    chooser: Player
    parts: tuple[Plan, ...]

    def __call__(self, itp, val):
        parts = self.parts
        return _ChoiceState(self.chooser, len(parts), False,
                            lambda i: parts[i - 1](itp, val))


@dataclass(slots=True)
class _QuantifierPlan:
    """A choice of `chooser` of the constant that `var` denotes in `body`."""
    chooser: Player
    var: str
    body: Plan

    def __call__(self, itp, val):
        body, var = self.body, self.var
        return _ChoiceState(self.chooser, 0, True,
                            lambda c: body(itp, val.override(var, c)))


@dataclass(slots=True)
class _BangPlan:
    body: Plan

    def __call__(self, itp, val):
        return _BangState({"": self.body(itp, val)})


@dataclass(slots=True)
class _BlockPlan:
    """A block's layout and the plans of its leaves, in route order."""
    layout: _Layout
    leaves: tuple[Plan, ...]

    def __call__(self, itp, val):
        return _BlockState(self.layout,
                           tuple(plan(itp, val) for plan in self.leaves))


def _plan(f: Formula) -> Plan:
    """The plan of `f`'s game: blocks get their layouts, and choices,
    quantifiers and recurrences hold their components' plans."""
    if isinstance(f, (Neg, Implies, ParConj, ParDisj)):
        return _block_plan(f)
    if isinstance(f, Atom):
        return _AtomPlan(f)
    if isinstance(f, (ChoiceConj, ChoiceDisj)):
        return _ChoicePlan(B if isinstance(f, ChoiceConj) else T,
                           tuple(_plan(p) for p in f.parts))
    if isinstance(f, (ChoiceAll, ChoiceExists)):
        return _QuantifierPlan(B if isinstance(f, ChoiceAll) else T, f.var,
                               _plan(f.body))
    if isinstance(f, Bang):
        return _BangPlan(_plan(f.body))
    if isinstance(f, Top):
        return _top
    if isinstance(f, Bot):
        return _bot
    if isinstance(f, Dollar):
        return _dollar
    if isinstance(f, Elem):
        return _elementary
    raise TypeError(f"unknown formula node {f!r}")


def _block_plan(f: Formula) -> _BlockPlan:
    """The plan of the block rooted at `f`."""
    routes, plans = [], []

    def walk(g: Formula, route: str, flipped: bool):
        """g's trie and, unless g is a leaf, its outcome-tree node with
        nodes of the same unit merged in."""
        while isinstance(g, Neg):
            g, flipped = g.body, not flipped
        if isinstance(g, Implies):
            parts, flips, unit = (g.left, g.right), (not flipped, flipped), B
        elif isinstance(g, (ParConj, ParDisj)):
            parts, flips = g.parts, (flipped,) * len(g.parts)
            unit = T if isinstance(g, ParConj) else B
        else:
            routes.append((sys.intern(route), flipped))
            plans.append(_plan(g))
            return len(routes) - 1, None
        unit = _OPPONENT[unit] if flipped else unit
        trie, own, subs = {}, [], []
        for k, (part, part_flipped) in enumerate(zip(parts, flips), start=1):
            sub_trie, child = walk(part, f"{route}{k}.", part_flipped)
            trie[sys.intern(str(k))] = sub_trie
            if sub_trie.__class__ is int:
                own.append(sub_trie)
            elif child[0] is unit:
                own.extend(child[1])
                subs.extend(child[2])
            else:
                subs.append(child)
        return trie, (unit, tuple(own), tuple(subs))

    trie, tree = walk(f, "", False)
    if trie.__class__ is int:
        tree = (T, (0,), ())
    return _BlockPlan(_Layout(tuple(routes), trie, tree), tuple(plans))


# The formula last compiled by `initial_state` and its plan.  Callers build
# all games of one formula in a row, and a plan is never changed once
# compiled, so the games of one formula object share one plan.  The key is
# the object itself, not its value, so a miss costs one `is` test and the
# slot never grows.
_last_plan: tuple[Optional[Formula], Optional[Plan]] = (None, None)


def initial_state(f: Formula, itp: Interpretation, val: Valuation) -> State:
    """The state of the game of `f` before any move: `f` is compiled once
    per run of games of the same formula object into a plan, which later
    choices instantiate without compiling again."""
    global _last_plan
    last, plan = _last_plan
    if last is not f:
        plan = _plan(f)
        _last_plan = f, plan
    return plan(itp, val)


def advance(state: State, lm: Labmove) -> Optional[State]:
    """`state` after `lm`, or None when `lm` is illegal there.  A move that
    contains the reserved symbol ♠ is illegal everywhere."""
    player, move = lm
    return None if SPADE in move else state.step(player, move)


def legal_moves(state: State, player: Player,
                structural_only: bool = False) -> list[str]:
    """The legal moves of `player` at `state` (see `State.moves_of`), sorted.
    Moves that contain ♠ are left out."""
    out = [m for m in state.moves_of(player, structural_only)
           if SPADE not in m]
    out.sort()
    return out


def successors(state: State, player: Player,
               structural_only: bool = False) -> list[tuple[str, State]]:
    """`legal_moves`, each with the state it leads to."""
    return [(m, state.step(player, m))
            for m in legal_moves(state, player, structural_only)]


def _replay(g: GameRef, run: Run) -> tuple[State, Optional[Labmove]]:
    """Step g's root state through `run`: the state after the longest legal
    prefix, and the first illegal labmove (None when the whole run is
    legal)."""
    state = g.root()
    for lm in run:
        nxt = advance(state, lm)
        if nxt is None:
            return state, lm
        state = nxt
    return state, None


def game_state(g: GameRef, run: Run = ()) -> State:
    """The state of `g` after `run`; IllegalPositionError if `run` is
    illegal."""
    state, offender = _replay(g, run)
    if offender is not None:
        raise IllegalPositionError("position is already illegal")
    return state


def position_legal(g: GameRef, run: Run) -> bool:
    """Legality of a run; prefix-closed, since an illegal move has no
    successor state."""
    return _replay(g, run)[1] is None


def winner(g: GameRef, run: Run) -> Player:
    """Total adjudication: offender loses on illegal runs."""
    state, offender = _replay(g, run)
    return state.outcome() if offender is None else offender.player.opponent


class MoveStatus(str, enum.Enum):
    LEGAL = "legal"
    ILLEGAL = "illegal"


def classify_move(g: GameRef, pos: Run, lm: Labmove) -> MoveStatus:
    if advance(game_state(g, pos), lm) is None:
        return MoveStatus.ILLEGAL
    return MoveStatus.LEGAL


def candidate_moves(g: GameRef, run: Run, player: Player,
                    structural_only: bool = False) -> list[str]:
    """Legal moves for `player` at `run` (see `legal_moves`);
    IllegalPositionError if `run` is illegal."""
    return legal_moves(game_state(g, run), player, structural_only)


# ---------------------------------------------------------------------------
# Interpretation files

def _checked_node(node) -> dict:
    """`node`, if it is a game node: a winner T or B with moves keyed
    "T:move" or "B:move", or a guard table of cases and a default;
    ValueError otherwise."""
    if isinstance(node, dict) and "cases" in node:
        cases = node["cases"]
        if not (isinstance(cases, list) and all(
                isinstance(c, dict) and isinstance(c.get("when", {}), dict)
                for c in cases)):
            raise ValueError(f"malformed guard table {node!r:.60}")
        subs = [{k: v for k, v in c.items() if k != "when"} for c in cases]
        subs += [node["default"]] if "default" in node else []
    else:
        moves = node.get("moves", {}) if isinstance(node, dict) else None
        if not (isinstance(moves, dict) and node.get("winner") in ("T", "B")
                and all(k.partition(":")[0] in ("T", "B") for k in moves)):
            raise ValueError(f"malformed game node {node!r:.60}")
        subs = moves.values()
    for sub in subs:
        _checked_node(sub)
    return node


def _node_to_game(node: dict, env: dict[str, int]) -> FiniteGame:
    if "cases" in node:
        for case in node["cases"]:
            when = case.get("when", {})
            if all(env.get(k) == v for k, v in when.items()):
                body = {k: v for k, v in case.items() if k != "when"}
                return _node_to_game(body, env)
        if "default" not in node:
            raise InterpretationError(
                "guard table without matching case or default")
        return _node_to_game(node["default"], env)
    game = FiniteGame(Player(node["winner"]))
    for key, sub in node.get("moves", {}).items():
        p, _, mv = key.partition(":")
        game.moves[(Player(p), mv)] = _node_to_game(sub, env)
    return game


# A letter key as formulas name letters: an ASCII letter name and a numeral
_LETTER_KEY = re.compile(r"([A-Z][A-Za-z0-9_]*)/(0|[1-9][0-9]*)")


def load_interpretation(text_or_obj) -> Interpretation:
    """An interpretation from its JSON form; ValueError when it has the wrong
    shape.  Letter games are built on first use, from checked nodes."""
    obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
    if not (isinstance(obj, dict)
            and isinstance(obj.get("letters", {}), dict)):
        raise ValueError("an interpretation is an object of 'letters'")
    letters = {}
    for key, spec in obj.get("letters", {}).items():
        letter = _LETTER_KEY.fullmatch(key)
        if letter is None:
            raise ValueError(f"letter key {key!r} is not NAME/ARITY: NAME is"
                             f" a letter [A-Z][A-Za-z0-9_]* and ARITY a"
                             f" numeral 0, 1, 2, ...")
        params = spec.get("params", []) if isinstance(spec, dict) else None
        if not (isinstance(params, list) and "game" in spec
                and all(isinstance(p, str) for p in params)
                and len(params) <= int(letter[2])):
            raise ValueError(f"letter {key!r} needs a 'game' and a list of"
                             f" at most {letter[2]} parameter names")
        node = _checked_node(spec["game"])

        def make(node=node, params=tuple(params)):
            def fn(args: tuple[int, ...]) -> FiniteGame:
                env = dict(zip(params, args))
                return _node_to_game(node, env)
            return fn

        letters[key] = make()
    base = obj.get("dollar_base")
    dollar = _node_to_game(_checked_node(base), {}) if base else ELEMENTARY_WIN
    return Interpretation(letters, dollar)


# ---------------------------------------------------------------------------
# Random interpretations

def random_structural_game(rng: random.Random, depth: int) -> FiniteGame:
    """A random static game of nesting `depth`: a choice/parallel
    composition of top and bot under negations, built directly as its
    explicit tree with runs cut after depth + 1 moves.

    Negations are pushed down to the leaves (~(A /\\ B) is ~A \\/ ~B with
    the same moves, and so on), so every node is built once, bottom-up."""
    def build(depth: int, budget: int, flip: bool) -> FiniteGame:
        if depth <= 0 or rng.random() < 0.25:
            return _LEAF[T if (rng.random() < 0.5) != flip else B]
        kind = rng.choice(("cc", "cd", "pc", "pd", "neg"))
        if kind == "neg":
            return build(depth - 1, budget, not flip)
        sub = budget - 1 if kind[0] == "c" else budget
        a = build(depth - 1, sub, flip)
        b = build(depth - 1, sub, flip)
        unit = T if (kind[1] == "c") != flip else B
        if kind[0] == "p":
            return _interleave(a, b, unit, budget)
        # the chooser is the opponent of the unit, and loses if it never
        # chooses; budget >= depth + 1 throughout, so no choice is cut
        chooser = _OPPONENT[unit]
        return FiniteGame(unit, {(chooser, "1"): a, (chooser, "2"): b})
    return build(depth, depth + 1, False)


def _interleave(a: FiniteGame, b: FiniteGame, unit: Player,
                budget: int) -> FiniteGame:
    """The parallel composition of `a` and `b` with unit `unit` (T for
    /\\, B for \\/), cut after `budget` moves: `unit` wins unless a
    component ends other than `unit`.  Environment moves come first, then
    the machine's, each sorted by move string, as `legal_moves` lists
    them."""
    won = a.winner is unit and b.winner is unit
    winner = unit if won else _OPPONENT[unit]
    if budget <= 0 or not (a.moves or b.moves):
        return _LEAF[winner]
    kids = [((p, "1." + m), _interleave(x, b, unit, budget - 1))
            for (p, m), x in a.moves.items()]
    kids += [((p, "2." + m), _interleave(a, y, unit, budget - 1))
             for (p, m), y in b.moves.items()]
    kids.sort(key=_kid_order)
    return FiniteGame(winner, dict(kids))


def _kid_order(kid) -> tuple[bool, str]:
    return kid[0][0] is T, kid[0][1]


def random_interpretation(seed: int, signature: Signature, depth: int = 3,
                          dollar_base: Optional[FiniteGame] = None) -> Interpretation:
    """Seeded interpretation assigning each letter a per-tuple static game,
    built directly as an explicit tree by `random_structural_game`."""
    letters = {}
    for name, arity in sorted(set(signature)):
        def fn(args: tuple[int, ...],
               prefix=f"{seed}/{name}/{arity}/") -> FiniteGame:
            return random_structural_game(random.Random(prefix + str(args)),
                                          depth)
        letters[f"{name}/{arity}"] = fn
    base = (copy.deepcopy(dollar_base) if dollar_base is not None
            else ELEMENTARY_WIN)
    return Interpretation(letters, base)

