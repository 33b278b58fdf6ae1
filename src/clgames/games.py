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
"""

from __future__ import annotations

import copy
import enum
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import formula as fm
from .formula import (Atom, Bang, Bot, ChoiceAll, ChoiceConj, ChoiceDisj,
                      ChoiceExists, Const, Dollar, Elem, Formula, Implies,
                      Neg, ParConj, ParDisj, Top)

SPADE = "♠"   # reserved always-illegal move symbol


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


def negate_run(run: Run) -> Run:
    return tuple(Labmove(lm.player.opponent, lm.move) for lm in run)


def project(run: Run, prefix: str) -> Run:
    """Keep labmoves whose move starts with `prefix`, stripping it."""
    return tuple(Labmove(lm.player, lm.move[len(prefix):])
                 for lm in run if lm.move.startswith(prefix))


# ---------------------------------------------------------------------------
# Bit-string trees and recurrence plumbing

def bits_leq(w: str, u: str) -> bool:
    """w is a (not necessarily proper) initial segment of u."""
    return u.startswith(w)


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
    """Check recurrence well-formedness and build the branch tree.

    A replication "w:" must come from the environment at a current leaf w
    and grows the tree by w0, w1; a move "w.alpha" requires w to be a
    current node.  Returns (False, tree-so-far) at the first violation.
    """
    tree = {""}
    for lm in run:
        parsed = split_bang_move(lm.move)
        if parsed is None:
            return False, frozenset(tree)
        if parsed[0] == "rep":
            w = parsed[1]
            if lm.player is not B or w not in tree or w + "0" in tree:
                return False, frozenset(tree)
            tree.add(w + "0")
            tree.add(w + "1")
        else:
            if parsed[1] not in tree:
                return False, frozenset(tree)
    return True, frozenset(tree)


def subrun_upto(run: Run, u: str) -> Run:
    """The single-branch view of a recurrence run along bit string u."""
    out = []
    for lm in run:
        parsed = split_bang_move(lm.move)
        if parsed is not None and parsed[0] == "node" and bits_leq(parsed[1], u):
            out.append(Labmove(lm.player, parsed[2]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Explicit finite games and interpretations

@dataclass
class FiniteGame:
    """An explicit finite game tree.

    `winner` labels the run ending at this node; `moves` maps (player, move)
    to subtrees.  Unlisted moves are illegal (the mover loses).
    """
    winner: Player
    moves: dict[tuple[Player, str], "FiniteGame"] = field(default_factory=dict)

    def walk(self, run: Run) -> Optional["FiniteGame"]:
        node = self
        for lm in run:
            node = node.moves.get((lm.player, lm.move))
            if node is None:
                return None
        return node

    def depth(self) -> int:
        if not self.moves:
            return 0
        return 1 + max(g.depth() for g in self.moves.values())


ELEMENTARY_WIN = FiniteGame(T)
ELEMENTARY_LOSS = FiniteGame(B)


def _numeral(s: str) -> Optional[int]:
    if s.isdigit() and not s.startswith("0"):
        return int(s)
    return None


def _cantor_tuple(arity: int, rank: int) -> tuple[int, ...]:
    """rank-th (0-based) tuple of positive integers, ordered by (sum, lex)."""
    if arity == 1:
        return (rank + 1,)
    total = arity            # smallest possible sum
    r = rank
    while True:
        count = _tuples_with_sum(arity, total)
        if r < count:
            return _unrank_sum(arity, total, r)
        r -= count
        total += 1


def _tuples_with_sum(arity: int, total: int) -> int:
    # compositions of `total` into `arity` positive parts
    from math import comb
    return comb(total - 1, arity - 1)


def _unrank_sum(arity: int, total: int, r: int) -> tuple[int, ...]:
    if arity == 1:
        return (total,)
    for first in range(1, total - arity + 2):
        count = _tuples_with_sum(arity - 1, total - first)
        if r < count:
            return (first,) + _unrank_sum(arity - 1, total - first, r)
        r -= count
    raise AssertionError("rank out of range")


Signature = tuple[tuple[str, int], ...]


def enumerate_grounded_atoms(signature: Signature, k: int) -> tuple[str, tuple[int, ...]]:
    """k-th (1-based) grounded atom under the fixed diagonal enumeration.

    Letters are ordered by (name, arity); round r contributes each letter's
    r-th argument tuple (0-ary letters only contribute at round 0).
    """
    if k < 1:
        raise ValueError("atom index starts at 1")
    letters = sorted(set(signature))
    seen = 0
    r = 0
    while True:
        produced = False
        for name, arity in letters:
            if arity == 0 and r > 0:
                continue
            produced = True
            seen += 1
            if seen == k:
                return name, () if arity == 0 else _cantor_tuple(arity, r)
        r += 1
        if not produced:
            # finite signature exhausted: no k-th atom exists
            raise IndexError(f"no grounded atom at index {k}")


def grounded_atom_index(signature: Signature, name: str, args: tuple[int, ...],
                        cap: int = 1_000_000) -> int:
    """Inverse of enumerate_grounded_atoms (1-based)."""
    for k in range(1, cap):
        try:
            if enumerate_grounded_atoms(signature, k) == (name, args):
                return k
        except IndexError:
            break
    raise ValueError(f"atom {name}{args} not found within cap")


@dataclass
class Interpretation:
    """Letter games plus the universal-problem base.

    `letters` maps "P/n" to a function from an n-tuple of constants to a
    FiniteGame; a letter's game depends only on its argument tuple.  The
    game for $ is the infinite choice conjunction whose first conjunct is
    `dollar_base` and whose (k+1)-th conjunct interprets the k-th grounded
    atom of the signature under the fixed enumeration.
    """
    letters: dict[str, Callable[[tuple[int, ...]], FiniteGame]]
    dollar_base: FiniteGame = field(default_factory=lambda: FiniteGame(T))
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def signature(self) -> Signature:
        out = []
        for key in sorted(self.letters):
            name, arity = key.split("/")
            out.append((name, int(arity)))
        return tuple(out)

    def letter_game(self, name: str, args: tuple[int, ...]) -> FiniteGame:
        key = f"{name}/{len(args)}"
        if key not in self.letters:
            raise KeyError(f"letter {key} not interpreted")
        ck = (name, args)
        if ck not in self._cache:
            self._cache[ck] = self.letters[key](args)
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


@dataclass
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


@dataclass
class GameRef:
    """A constant game: formula + interpretation + valuation (+ prefix).

    The optional prefix realizes prefixation: this ref denotes the game the
    base formula evolves to after the prefix has been played.
    """
    formula: Formula
    interp: Interpretation
    valuation: Valuation = field(default_factory=Valuation)
    prefix: Run = ()


class IllegalPositionError(ValueError):
    pass


def prefixation(g: GameRef, pos: Run) -> GameRef:
    if not position_legal(g, pos):
        raise IllegalPositionError(f"prefix {pos} is not a legal position")
    return GameRef(g.formula, g.interp, g.valuation, g.prefix + tuple(pos))


# ---------------------------------------------------------------------------
# Legality and winner

def position_legal(g: GameRef, run: Run) -> bool:
    """Whole-run legality; prefix-closed by construction of the clauses."""
    return _judge_run(g, g.prefix + tuple(run)) is not None


def winner(g: GameRef, run: Run) -> Player:
    """Total adjudication: offender loses on illegal runs."""
    full = g.prefix + tuple(run)
    verdict = _judge_run(g, full)
    if verdict is not None:
        return verdict
    for k in range(1, len(full) + 1):
        if _judge_run(g, full[:k]) is None:
            return full[k - 1].player.opponent
    raise AssertionError("run is legal; no offender")


def _judge_run(g: GameRef, full: Run) -> Optional[Player]:
    if any(SPADE in lm.move for lm in full):
        return None
    return _judge(g.formula, g.interp, g.valuation, full)


def _judge(f: Formula, itp: Interpretation, val: Valuation,
           run: Run) -> Optional[Player]:
    """The winner of `run` in the game of `f`, or None if `run` is illegal.

    Each connective splits the run into the runs of its components, checks
    the split is well formed, and combines the components' verdicts.
    """
    if isinstance(f, Atom):
        game = itp.letter_game(f.letter, tuple(val.term(t) for t in f.args))
        node = game.walk(run)
        return node.winner if node is not None else None
    if isinstance(f, (Top, Bot)):
        if run:
            return None
        return T if isinstance(f, Top) else B
    if isinstance(f, Dollar):
        if not run:
            return T
        first = run[0]
        m = _numeral(first.move)
        if first.player is not B or m is None:
            return None
        component = itp.dollar_component(m)
        node = component.walk(run[1:]) if component is not None else None
        return node.winner if node is not None else None
    if isinstance(f, Neg):
        inner = _judge(f.body, itp, val, negate_run(run))
        return inner.opponent if inner is not None else None
    if isinstance(f, (ParConj, ParDisj, Implies)):
        comps = _components(f)
        projs = _split_parallel(run, len(comps))
        if projs is None:
            return None
        # /\ is won unless a component is lost; \/ and -> are lost unless
        # a component is won
        verdict = unit = T if isinstance(f, ParConj) else B
        for c, p in zip(comps, projs):
            o = _judge(c, itp, val, p)
            if o is None:
                return None
            if o is not unit:
                verdict = o
        return verdict
    if isinstance(f, (ChoiceConj, ChoiceDisj)):
        chooser = B if isinstance(f, ChoiceConj) else T
        if not run:
            return chooser.opponent
        first = run[0]
        i = _numeral(first.move)
        if first.player is not chooser or i is None or i > len(f.parts):
            return None
        return _judge(f.parts[i - 1], itp, val, run[1:])
    if isinstance(f, (ChoiceAll, ChoiceExists)):
        chooser = B if isinstance(f, ChoiceAll) else T
        if not run:
            return chooser.opponent
        first = run[0]
        c = _numeral(first.move)
        if first.player is not chooser or c is None:
            return None
        return _judge(f.body, itp, val.override(f.var, c), run[1:])
    if isinstance(f, Bang):
        ok, tree = prelegal_and_tree(run)
        if not ok:
            return None
        verdict = T
        for w in tree_leaves(tree):
            o = _judge(f.body, itp, val, subrun_upto(run, w))
            if o is None:
                return None
            if o is B:
                verdict = B
        return verdict
    if isinstance(f, Elem):
        raise ValueError("elementary atoms have no game semantics")
    raise TypeError(f"unknown formula node {f!r}")


def _components(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Implies):
        return (Neg(f.left), f.right)
    return f.parts


def _split_parallel(run: Run, n: int) -> Optional[list[Run]]:
    projs: list[list[Labmove]] = [[] for _ in range(n)]
    for lm in run:
        head, dot, rest = lm.move.partition(".")
        i = _numeral(head) if dot else None
        if i is None or i > n:
            return None
        projs[i - 1].append(Labmove(lm.player, rest))
    return [tuple(p) for p in projs]


class MoveStatus(str, enum.Enum):
    LEGAL = "legal"
    ILLEGAL = "illegal"


def classify_move(g: GameRef, pos: Run, lm: Labmove) -> MoveStatus:
    if not position_legal(g, pos):
        raise IllegalPositionError("position is already illegal")
    if SPADE in lm.move:
        return MoveStatus.ILLEGAL
    ok = position_legal(g, tuple(pos) + (lm,))
    return MoveStatus.LEGAL if ok else MoveStatus.ILLEGAL


# ---------------------------------------------------------------------------
# Candidate move enumeration (bounded; used for hints, random and
# exhaustive environments)

def candidate_moves(g: GameRef, run: Run, player: Player, ccap: int = 3,
                    structural_only: bool = False) -> list[str]:
    """Legal moves for `player` at `run`, drawn from a bounded candidate set.

    Constants for quantifier/universal-problem choices are capped at `ccap`.
    With structural_only, moves that bottom out inside an interpreted atom's
    own game tree are excluded (their legality depends on the
    interpretation; the rest is decided by formula shape alone).
    """
    full = g.prefix + tuple(run)
    raw = _raw_candidates(g.formula, g.interp, g.valuation, full, ccap,
                          structural_only)
    out = []
    for m in sorted(set(raw)):
        if classify_move(g, run, Labmove(player, m)) is MoveStatus.LEGAL:
            out.append(m)
    return out


def _raw_candidates(f, itp, val, run, ccap, structural) -> list[str]:
    if isinstance(f, Atom):
        if structural:
            return []
        node = itp.letter_game(f.letter, tuple(val.term(t) for t in f.args)).walk(run)
        return [m for _, m in node.moves] if node else []
    if isinstance(f, (Top, Bot, Elem)):
        return []
    if isinstance(f, Dollar):
        if not run:
            return [str(i) for i in range(1, ccap + 1)]
        if structural:
            return []
        m = _numeral(run[0].move)
        if m is None:
            return []
        component = itp.dollar_component(m)
        node = component.walk(run[1:]) if component is not None else None
        return [mv for _, mv in node.moves] if node else []
    if isinstance(f, Neg):
        return _raw_candidates(f.body, itp, val, negate_run(run), ccap, structural)
    if isinstance(f, (ParConj, ParDisj, Implies)):
        comps = _components(f)
        projs = _split_parallel(run, len(comps))
        if projs is None:
            return []
        out = []
        for i, (c, p) in enumerate(zip(comps, projs), start=1):
            out.extend(f"{i}.{m}" for m in
                       _raw_candidates(c, itp, val, p, ccap, structural))
        return out
    if isinstance(f, (ChoiceConj, ChoiceDisj)):
        if not run:
            return [str(i) for i in range(1, len(f.parts) + 1)]
        i = _numeral(run[0].move)
        if i is None or i > len(f.parts):
            return []
        return _raw_candidates(f.parts[i - 1], itp, val, run[1:], ccap, structural)
    if isinstance(f, (ChoiceAll, ChoiceExists)):
        if not run:
            return [str(i) for i in range(1, ccap + 1)]
        c = _numeral(run[0].move)
        if c is None:
            return []
        return _raw_candidates(f.body, itp, val.override(f.var, c), run[1:],
                               ccap, structural)
    if isinstance(f, Bang):
        ok, tree = prelegal_and_tree(run)
        if not ok:
            return []
        leaves = tree_leaves(tree)
        out = [w + ":" for w in leaves]
        for w in sorted(tree):
            inner = set()
            for u in leaves:
                if bits_leq(w, u):
                    inner.update(_raw_candidates(f.body, itp, val,
                                                 subrun_upto(run, u), ccap,
                                                 structural))
            out.extend(w + "." + m for m in inner)
        return out
    raise TypeError(f"unknown formula node {f!r}")


# ---------------------------------------------------------------------------
# Interpretation files

def _node_to_game(node: dict, env: dict[str, int]) -> FiniteGame:
    if "cases" in node:
        for case in node["cases"]:
            when = case.get("when", {})
            if all(env.get(k) == v for k, v in when.items()):
                body = {k: v for k, v in case.items() if k != "when"}
                return _node_to_game(body, env)
        if "default" not in node:
            raise ValueError("guard table without matching case or default")
        return _node_to_game(node["default"], env)
    game = FiniteGame(Player(node["winner"]))
    for key, sub in node.get("moves", {}).items():
        p, _, mv = key.partition(":")
        game.moves[(Player(p), mv)] = _node_to_game(sub, env)
    return game


def _game_to_node(game: FiniteGame) -> dict:
    node = {"winner": game.winner.value}
    if game.moves:
        node["moves"] = {f"{p.value}:{m}": _game_to_node(sub)
                         for (p, m), sub in game.moves.items()}
    return node


def load_interpretation(text_or_obj) -> Interpretation:
    obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
    letters = {}
    for key, spec in obj.get("letters", {}).items():
        params = spec.get("params", [])
        node = spec["game"]

        def make(node=node, params=tuple(params)):
            def fn(args: tuple[int, ...]) -> FiniteGame:
                env = dict(zip(params, args))
                return _node_to_game(node, env)
            return fn

        letters[key] = make()
    base = obj.get("dollar_base")
    dollar = _node_to_game(base, {}) if base else FiniteGame(T)
    return Interpretation(letters, dollar)


def dump_interpretation(itp: Interpretation, arg_cap: int = 2) -> dict:
    """Serialize by materializing guard tables over constants <= arg_cap."""
    letters = {}
    for key in sorted(itp.letters):
        name, arity_s = key.split("/")
        arity = int(arity_s)
        params = [f"x{i + 1}" for i in range(arity)]
        if arity == 0:
            letters[key] = {"params": [], "game": _game_to_node(itp.letter_game(name, ()))}
            continue
        cases = []
        default = None
        for k in range(_tuple_count(arity, arg_cap)):
            args = _tuple_at(arity, arg_cap, k)
            node = _game_to_node(itp.letter_game(name, args))
            cases.append({"when": dict(zip(params, args)), **node})
            default = node
        letters[key] = {"params": params,
                        "game": {"cases": cases, "default": default}}
    return {"letters": letters, "dollar_base": _game_to_node(itp.dollar_base)}


def _tuple_count(arity: int, cap: int) -> int:
    return cap ** arity


def _tuple_at(arity: int, cap: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(arity):
        out.append(k % cap + 1)
        k //= cap
    return tuple(out)


# ---------------------------------------------------------------------------
# Materialization and random interpretations

def materialize(g: GameRef, max_len: int, ccap: int = 3) -> FiniteGame:
    """Explicit game tree of g, truncated to runs of length max_len."""
    def build(run: Run) -> FiniteGame:
        node = FiniteGame(winner(g, run))
        if len(run) < max_len:
            for player in (B, T):
                for m in candidate_moves(g, run, player, ccap):
                    node.moves[(player, m)] = build(run + (Labmove(player, m),))
        return node
    return build(())


_GAME_INTERP = Interpretation({})   # trivially empty: pure structural games


def random_structural_game(rng: random.Random, depth: int) -> FiniteGame:
    """A random static game: a materialized choice/parallel composition."""
    f = _random_game_formula(rng, depth)
    return materialize(GameRef(f, _GAME_INTERP), max_len=depth + 1, ccap=2)


def _random_game_formula(rng: random.Random, depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.25:
        return Top() if rng.random() < 0.5 else Bot()
    kind = rng.choice(["cc", "cd", "pc", "pd", "neg"])
    if kind == "neg":
        return Neg(_random_game_formula(rng, depth - 1))
    a = _random_game_formula(rng, depth - 1)
    b = _random_game_formula(rng, depth - 1)
    return {"cc": ChoiceConj, "cd": ChoiceDisj,
            "pc": ParConj, "pd": ParDisj}[kind]((a, b))


def random_interpretation(seed: int, signature: Signature, depth: int = 3,
                          dollar_base: Optional[FiniteGame] = None) -> Interpretation:
    """Seeded interpretation assigning each letter a per-tuple static game."""
    letters = {}
    for name, arity in sorted(set(signature)):
        def make(name=name, arity=arity):
            def fn(args: tuple[int, ...]) -> FiniteGame:
                rng = random.Random(f"{seed}/{name}/{arity}/{args}")
                return random_structural_game(rng, depth)
            return fn
        letters[f"{name}/{arity}"] = make()
    base = dollar_base if dollar_base is not None else FiniteGame(T)
    return Interpretation(letters, copy.deepcopy(base))


def observationally_equal(a: GameRef, b: GameRef, max_len: int,
                          ccap: int = 3) -> bool:
    """Compare two games on all candidate runs up to max_len moves."""
    def rec(run_a: Run, run_b: Run) -> bool:
        if winner(a, run_a) != winner(b, run_b):
            return False
        if len(run_a) >= max_len:
            return True
        moves_a = {(p, m) for p in (T, B)
                   for m in candidate_moves(a, run_a, p, ccap)}
        moves_b = {(p, m) for p in (T, B)
                   for m in candidate_moves(b, run_b, p, ccap)}
        if moves_a != moves_b:
            return False
        return all(rec(run_a + (Labmove(p, m),), run_b + (Labmove(p, m),))
                   for p, m in sorted(moves_a))
    return rec((), ())
