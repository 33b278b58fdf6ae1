"""Named winning strategies and strategy combinators.

Every strategy here is a one-pass reactive Machine: it scans the run once,
reacts only to environment moves, and never inspects the interpretation.
Each is documented by the shape of game it wins, in the surface grammar
(! is the reusable-resource modality, & / + the choice connectives,
@x / ?x the choice quantifiers).  The strategies that resolve the choices
on which the two sides of F -> G differ and then mirror (l11a-l11d,
oct5a-oct5d, oct99, exists_drop and l4a[n=1]) are all `CcsMachine`, with
the prologue set in the registry; their games are documented there.

A strategy depends only on its expression, so each `Expr` is built once
per process into a prototype machine that is never played; every play,
and every sub-expression of a larger expression, gets a `Machine.fork()`
of it.
"""

from __future__ import annotations

import functools
from typing import Optional

from . import cl2, formula as fm
from .epm import Machine, PlayContext, Strategy
from .formula import (Atom, ChoiceConj, ChoiceDisj, ChoiceExists, Dollar,
                      Formula, Implies, _new, _Node, _numeral,
                      _tuplegetter)
from .games import grounded_atom_index, split_bang_move


# ---------------------------------------------------------------------------
# Mirroring strategies

class CcsMachine(Machine):
    """Copy-cat: wins F -> F by mirroring moves across the two components.

    The registry gives the copy-cat a prologue for the strategies that
    first resolve the choices on which the two sides of F -> G differ.
    `start` makes the `opening` moves, with "{t}" standing for the value of
    the term `t`.  With a `trigger`, nothing is mirrored until the
    environment moves a numeral c right after that prefix (any c the game
    allows); the machine answers with the `answer` moves, "{c}" standing
    for c, then mirrors the moves it held under the `hold` prefix meanwhile.
    Any other move before the trigger, or outside both components (`ccs`
    is the CLI default on any game), gets no answer.
    """

    def __init__(self, opening: tuple[str, ...] = (), t=None,
                 trigger: Optional[str] = None,
                 answer: tuple[str, ...] = (), hold: Optional[str] = None):
        self.opening = opening
        self.trigger = trigger              # None once seen
        if not opening and trigger is None:
            return          # a plain copy-cat: no more state, cheaper forks
        self.t = None if t is None else fm.term(t)
        self.answer = answer
        self.hold = hold
        self.held: list[str] = []

    def start(self, ctx: PlayContext) -> list[str]:
        if not self.opening:
            return []
        t = None if self.t is None else ctx.valuation.term(self.t)
        return [m.format(t=t) for m in self.opening]

    def on_env(self, move: str) -> list[str]:
        if self.trigger is None:
            if move.startswith("1."):
                return ["2." + move[2:]]
            if move.startswith("2."):
                return ["1." + move[2:]]
            return []
        if self.hold is not None and move.startswith(self.hold):
            self.held.append(move)
            return []
        if move.startswith(self.trigger):
            c = _numeral(move[len(self.trigger):])
            if c is not None:
                self.trigger = None
                held, self.held = self.held, []
                return ([m.format(c=c) for m in self.answer]
                        + [r for m in held for r in self.on_env(m)])
        return []


class L6aMachine(Machine):
    """Wins !F -> F: copy-cat that keeps the whole antecedent at one branch,
    tagging every antecedent move with the root branch token."""

    def on_env(self, move: str) -> list[str]:
        if move.startswith("1.."):
            return ["2." + move[3:]]
        if move.startswith("2."):
            return ["1.." + move[2:]]
        raise ValueError(f"not a move of !F -> F: {move!r}")


class L4Machine(Machine):
    """Wins !(F -> G) -> (!F -> !G).

    Replications of !G are echoed into !(F -> G) and !F so the three branch
    trees stay identical; within each branch the play is a double copy-cat
    pairing the F occurrences and the G occurrences.
    """

    def on_env(self, move: str) -> list[str]:
        if move.startswith("2.2."):
            parsed = split_bang_move(move[4:])
            if parsed[0] == "rep":
                w = parsed[1]
                return [f"1.{w}:", f"2.1.{w}:"]
            _, w, alpha = parsed
            return [f"1.{w}.2.{alpha}"]
        if move.startswith("2.1."):
            _, w, alpha = split_bang_move(move[4:])
            return [f"1.{w}.1.{alpha}"]
        _, w, beta = split_bang_move(move[2:])      # "1.w.beta", beta in F -> G
        side, alpha = beta.split(".", 1)
        return [f"2.{side}.{w}.{alpha}"]


class L4aMachine(Machine):
    """Wins !F1 /\\ ... /\\ !Fn -> !(F1 /\\ ... /\\ Fn): replications of the
    consequent broadcast to all n antecedent resources; component moves are
    transposed between "branch-then-index" and "index-then-branch" form."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n

    def on_env(self, move: str) -> list[str]:
        if move.startswith("2."):
            parsed = split_bang_move(move[2:])
            if parsed[0] == "rep":
                w = parsed[1]
                return [f"1.{i}.{w}:" for i in range(1, self.n + 1)]
            _, w, alpha = parsed
            i, rest = alpha.split(".", 1)
            return [f"1.{i}.{w}.{rest}"]
        i, rest = move[2:].split(".", 1)            # "1.i.w.alpha"
        _, w, alpha = split_bang_move(rest)
        return [f"2.{w}.{i}.{alpha}"]


class L6cMachine(Machine):
    """Wins !F -> !F /\\ !F: replicates the antecedent once, then routes
    branch 0 to the first conjunct, branch 1 to the second, broadcasting
    root-branch antecedent moves to both."""

    def start(self, ctx: PlayContext) -> list[str]:
        return ["1.:"]

    def on_env(self, move: str) -> list[str]:
        if move.startswith(("2.1.", "2.2.")):
            bit = "0" if move[2] == "1" else "1"
            return [f"1.{bit}{move[4:]}"]
        _, w, alpha = split_bang_move(move[2:])     # "1.w.alpha"
        if w == "":
            return [f"2.1..{alpha}", f"2.2..{alpha}"]
        rest = f"{w[1:]}.{alpha}"
        return ["2.1." + rest] if w[0] == "0" else ["2.2." + rest]


# ---------------------------------------------------------------------------
# The universal-resource strategy

class L6bMachine(Machine):
    """Wins !$ -> K for any formula K of the sublanguage.

    Built by recursion on K: the universal resource in the antecedent is
    specialized to whichever conjunct matches K's head (atoms pick their
    index in the fixed grounded-atom enumeration; consequent choices are
    answered with 1, or follow the environment's pick), bottoming out in
    the !F -> F copy-cat.  Once the head is resolved, a delegate machine
    receives every environment move.
    """

    def __init__(self, k: Formula):
        if not fm.is_int_formula(k):
            raise ValueError(f"not in the sublanguage: {fm.render(k)}")
        self.k = k
        self.ctx: Optional[PlayContext] = None
        self.delegate: Optional[Machine] = None

    def _handover(self, machine: Machine) -> list[str]:
        self.delegate = machine
        return machine.start(self.ctx)

    def start(self, ctx):
        self.ctx = ctx
        k = self.k
        if isinstance(k, Dollar):
            return self._handover(L6aMachine())
        if isinstance(k, Atom):
            args = tuple(ctx.valuation.term(t) for t in k.args)
            m = 1 + grounded_atom_index(ctx.signature, k.letter, args)
            return [f"1..{m}"] + self._handover(L6aMachine())
        if isinstance(k, Implies):              # encoded resource implication
            b_inst = _cl2("(R -> S) -> R /\\ P -> S")
            d_inst = _cl2("(R /\\ P -> S) -> R -> P -> S")
            d = transitivity_machine(b_inst, d_inst)
            return self._handover(MpMachine([L6bMachine(k.right)], d))
        if isinstance(k, ChoiceDisj):
            return ["2.1"] + self._handover(L6bMachine(k.parts[0]))
        if isinstance(k, ChoiceExists):
            body = fm.substitute(k.body, [(k.var, 1)])
            return ["2.1"] + self._handover(L6bMachine(body))
        return []               # & or the universal choice: wait for it

    def on_env(self, move):
        if self.delegate is not None:
            return self.delegate.on_env(move)
        c = int(move.removeprefix("2."))           # the choice "2.c"
        k = self.k
        if isinstance(k, ChoiceConj):
            return self._handover(L6bMachine(k.parts[c - 1]))
        return self._handover(L6bMachine(fm.substitute(k.body, [(k.var, c)])))


# ---------------------------------------------------------------------------
# The tree-of-trees strategy

ColoredBit = tuple[str, str]          # (content bit, color) with color b|y
ColoredString = tuple[ColoredBit, ...]

BLUE = "b"
YELLOW = "y"


def content(v: ColoredString) -> str:
    return "".join(bit for bit, _ in v)


def blue_content(v: ColoredString) -> str:
    return "".join(bit for bit, col in v if col == BLUE)


def yellow_content(v: ColoredString) -> str:
    return "".join(bit for bit, col in v if col == YELLOW)


def colored_contents(t) -> dict[ColoredString, tuple[str, str, str]]:
    """Each string of `t` with its content, blue content and yellow
    content, read in one pass over the string."""
    out = {}
    for v in t:
        c = b = y = ""
        for bit, col in v:
            c += bit
            if col == BLUE:
                b += bit
            elif col == YELLOW:
                y += bit
        out[v] = (c, b, y)
    return out


_SIBLINGS = ({("0", BLUE), ("1", BLUE)}, {("0", YELLOW), ("1", YELLOW)})


def is_colored_tree(t: frozenset[ColoredString]) -> bool:
    """`()` is in `t`, every other string's parent is in `t`, and each
    string's children in `t` are none or exactly v+("0", c) and v+("1", c)
    for one color c."""
    children = {v: set() for v in t}
    for v in t:
        if v:
            if v[:-1] not in children:
                return False
            children[v[:-1]].add(v[-1])
    return () in children and all(not kids or kids in _SIBLINGS
                                  for kids in children.values())


def colored_tree_leaves(contents: dict[ColoredString, str]
                        ) -> list[ColoredString]:
    """The strings of a colored tree, given with their contents, whose
    contents are leaves, sorted by content."""
    nodes = set(contents.values())
    leaves = [v for v, c in contents.items() if c + "0" not in nodes]
    return sorted(leaves, key=contents.__getitem__)


class L5Machine(Machine):
    """Wins !F -> !!F.

    The consequent's branches-of-branches are matched one-to-one with the
    antecedent's branches through a tree whose edges are colored: the blue
    subsequence of an antecedent branch names the outer consequent branch
    and the yellow subsequence names the inner one.  Outer replications
    split matching leaves with blue children, inner replications with
    yellow children; ordinary moves are copied between the matched
    branches.  A move of any other shape raises.
    """

    def __init__(self):
        self.tree: set[ColoredString] = {()}

    def _leaves(self) -> list[ColoredString]:
        return colored_tree_leaves({v: content(v) for v in self.tree})

    def on_env(self, move: str) -> list[str]:
        if move.startswith("2."):
            parsed = split_bang_move(move[2:])
            if parsed[0] == "rep":                       # outer replication
                w = parsed[1]
                vs = [v for v in self._leaves() if blue_content(v) == w]
                out = [f"1.{content(v)}:" for v in vs]
                for v in vs:
                    self.tree.add(v + (("0", BLUE),))
                    self.tree.add(v + (("1", BLUE),))
                return out
            _, w, inner = parsed
            parsed2 = split_bang_move(inner)
            if parsed2[0] == "rep":                      # inner replication
                u = parsed2[1]
                vs = [v for v in self._leaves()
                      if blue_content(v).startswith(w)
                      and yellow_content(v) == u]
                out = [f"1.{content(v)}:" for v in vs]
                for v in vs:
                    self.tree.add(v + (("0", YELLOW),))
                    self.tree.add(v + (("1", YELLOW),))
                return out
            _, u, alpha = parsed2                        # inner ordinary move
            vs = [v for v in self._leaves()
                  if blue_content(v).startswith(w)
                  and yellow_content(v).startswith(u)]
            return [f"1.{content(v)}.{alpha}" for v in vs]
        _, w, alpha = split_bang_move(move[2:])     # "1.w.alpha"
        vs = [v for v in self._leaves() if content(v).startswith(w)]
        return [f"2.{blue_content(v)}.{yellow_content(v)}.{alpha}" for v in vs]


# ---------------------------------------------------------------------------
# Combinators

class MpMachine(Machine):
    """Modus ponens composition.

    Given machines e1..en winning F1..Fn and c winning F1 /\\ .. /\\ Fn -> E,
    plays E: external moves go to c's consequent; c's antecedent moves are
    piped to the matching ei and the ei's moves are fed back to c.
    """

    MAX_RELAY = 10_000

    def __init__(self, parts: list[Machine], c: Machine):
        if not parts:
            raise ValueError("use the c machine directly when there are no parts")
        self.parts = list(parts)
        self.c = c

    def _part_prefix(self, i: int) -> str:
        return "1." if len(self.parts) == 1 else f"1.{i + 1}."

    def start(self, ctx: PlayContext) -> list[str]:
        work = [("c", m) for m in self.c.start(ctx)]
        for i, p in enumerate(self.parts):
            work.extend(("p", i, m) for m in p.start(ctx))
        return self._pump(work)

    def on_env(self, move: str) -> list[str]:
        return self._pump([("c", m) for m in self.c.on_env("2." + move)])

    def _pump(self, work: list) -> list[str]:
        out: list[str] = []
        hops = 0
        while work:
            hops += 1
            if hops > self.MAX_RELAY:
                raise RuntimeError("relay loop in strategy composition")
            item = work.pop(0)
            if item[0] == "c":
                m = item[1]
                if m.startswith("2."):
                    out.append(m[2:])
                    continue
                if not m.startswith("1."):
                    raise RuntimeError(f"composition shape mismatch: {m!r}")
                if len(self.parts) == 1:
                    i, rest = 0, m[2:]
                else:
                    head, dot, rest = m[2:].partition(".")
                    i = int(head) - 1
                    if not dot or not 0 <= i < len(self.parts):
                        raise RuntimeError(f"composition shape mismatch: {m!r}")
                work.extend(("p", i, r) for r in self.parts[i].on_env(rest))
            else:
                _, i, m = item
                fed = self._part_prefix(i) + m
                work.extend(("c", r) for r in self.c.on_env(fed))
        return out


def transitivity_machine(e1: Machine, e2: Machine) -> Machine:
    c = _cl2("(P -> Q) /\\ (Q -> S) -> P -> S")
    return MpMachine([e1, e2], c)


class BangClosureMachine(Machine):
    """Lifts a machine winning F to one winning !F: keeps one copy of the
    inner machine per branch, splitting the copy when its leaf replicates
    and broadcasting node moves to every branch below the node."""

    def __init__(self, inner: Machine):
        self.copies: dict[str, Machine] = {"": inner}

    def start(self, ctx: PlayContext) -> list[str]:
        return [f".{m}" for m in self.copies[""].start(ctx)]

    def on_env(self, move: str) -> list[str]:
        parsed = split_bang_move(move)
        if parsed[0] == "rep":
            w = parsed[1]
            original = self.copies.pop(w)
            self.copies[w + "0"] = original
            self.copies[w + "1"] = original.fork()
            return []
        _, w, alpha = parsed
        out = []
        for u in sorted(self.copies):
            if u.startswith(w):
                out.extend(f"{u}.{r}" for r in self.copies[u].on_env(alpha))
        return out


class AllClosureMachine(Machine):
    """Lifts a machine winning F to one winning @x.F: waits for the
    environment's constant c and runs the inner machine with x valued c."""

    def __init__(self, inner: Machine, var: str):
        self.inner = inner
        self.var = var
        self.running = False
        self.ctx = None

    def start(self, ctx: PlayContext) -> list[str]:
        self.ctx = ctx
        return []

    def on_env(self, move: str) -> list[str]:
        if self.running:
            return self.inner.on_env(move)
        c = int(move)                               # the environment's constant
        self.running = True
        ctx2 = PlayContext(self.ctx.valuation.override(self.var, c),
                           self.ctx.signature)
        return self.inner.start(ctx2)


def _cl2(text: str) -> Machine:
    """Machine extracted from the decision procedure's proof of `text`,
    which must be a formula's rendering."""
    return _prototype(Expr("cl2", text)).fork()


# ---------------------------------------------------------------------------
# Registry

def _l4a(args):
    n = int(args["n"])
    # !F1 -> !F1 has no conjunction wrapper on either side: plain copy-cat
    return CcsMachine() if n == 1 else L4aMachine(n)


def _l11a(args):
    """Wins !(F1 & ... & Fn) -> !Fi: resolves the antecedent choice at the
    root branch, then plays copy-cat."""
    i, n = int(args["i"]), int(args["n"])
    if not 1 <= i <= n or n < 2:
        raise ValueError("need n >= 2 and 1 <= i <= n")
    return CcsMachine(opening=(f"1..{i}",))


def _l11c(args):
    """Wins !(F1 + ... + Fn) -> !F1 + ... + !Fn: waits for the environment's
    antecedent choice j, answers with the same consequent choice, then
    plays copy-cat."""
    n = int(args["n"])
    if n < 2:
        raise ValueError("need n >= 2")
    return CcsMachine(trigger="1..", answer=("2.{c}",))


def _oct5d(args):
    """Wins @x.(F1(x) /\\ .. /\\ Fn(x) /\\ E(x) -> G(x))
         -> (@x.F1(x) /\\ .. /\\ @x.Fn(x) /\\ ?x.E(x) -> ?x.G(x)):
    waits for the environment's constant in the ?x.E component and repeats
    it everywhere, then copy-cat."""
    n = int(args["n"])
    if n < 0:
        raise ValueError("need n >= 0")
    fan = tuple(f"2.1.{i}.{{c}}" for i in range(1, n + 1))
    return CcsMachine(trigger="2.1." if n == 0 else f"2.1.{n + 1}.",
                      answer=("2.2.{c}", "1.{c}") + fan)


_REGISTRY = {
    "ccs": lambda args: CcsMachine(),
    "l6a": lambda args: L6aMachine(),
    "l4": lambda args: L4Machine(),
    "l4a": _l4a,
    "l6c": lambda args: L6cMachine(),
    "l6b": lambda args: L6bMachine(fm.parse_formula(args["K"])),
    "l11a": _l11a,
    # Wins !@x.G(x) -> !G(t): reads the value of t off the valuation,
    # resolves the antecedent quantifier at the root branch, then copy-cat.
    "l11b": lambda args: CcsMachine(opening=("1..{t}",), t=args["t"]),
    "l11c": _l11c,
    # Wins !?x.G(x) -> ?x.!G(x): waits for the environment's antecedent
    # constant, repeats it in the consequent, then copy-cat.
    "l11d": lambda args: CcsMachine(trigger="1..", answer=("2.{c}",)),
    # Wins @x.(F(x) -> G(x)) -> (@x.F(x) -> @x.G(x)): waits for the
    # environment's constant in the consequent, repeats it in the other two
    # quantified components, then copy-cat.
    "oct5a": lambda args: CcsMachine(trigger="2.2.",
                                     answer=("1.{c}", "2.1.{c}")),
    # Wins F(t) -> ?x.F(x): resolves the consequent with the value of t,
    # then copy-cat.
    "oct5b": lambda args: CcsMachine(opening=("2.{t}",), t=args["t"]),
    # Wins F -> @x.F when F has no free x: waits for the environment's
    # constant, mirrors the antecedent moves it held meanwhile, then
    # copy-cat.
    "oct5c": lambda args: CcsMachine(trigger="2.", hold="1."),
    "oct5d": _oct5d,
    # Renaming a choice-quantified variable changes nothing: copy-cat.
    "oct99": lambda args: CcsMachine(),
    # Wins ?x.F -> F when F has no free x: waits for the environment's
    # antecedent constant, mirrors the consequent moves it held meanwhile,
    # then copy-cat.
    "exists_drop": lambda args: CcsMachine(trigger="1.", hold="2."),
    "l5": lambda args: L5Machine(),
}


def registry_ids() -> list[str]:
    return sorted(_REGISTRY)


def parse_strategy_id(text: str) -> tuple[str, dict]:
    """Parse "name" or "name[k=v,k=v]" into (name, args)."""
    text = text.strip()
    if "[" not in text:
        return text, {}
    if not text.endswith("]"):
        raise ValueError(f"bad strategy id {text!r}")
    name, _, argpart = text[:-1].partition("[")
    args = {}
    for chunk in fm.split_top_level(argpart):
        if not chunk:
            continue
        k, eq, v = chunk.partition("=")
        if not eq:
            raise ValueError(f"bad strategy argument {chunk!r}")
        args[k.strip()] = v.strip()
    return name, args


def build_machine(strategy_id: str) -> Machine:
    name, args = parse_strategy_id(strategy_id)
    if name not in _REGISTRY:
        raise KeyError(f"unknown strategy {name!r}; known: {registry_ids()}")
    return _REGISTRY[name](args)


def build_strategy(strategy_id: str) -> Strategy:
    return reg(strategy_id).strategy()


# ---------------------------------------------------------------------------
# Combinator expressions (the compiler's output language)

class Expr(_Node):
    """A lazily evaluated strategy expression over the registry.

    kinds: "reg" (payload: id string), "mp" (children: parts + c last),
    "trans" (2 children), "bang"/"allx" (1 child; allx carries the
    variable in payload), "cl2" (payload: the proved formula's rendering).
    """
    __slots__ = ()
    _fields = ("kind", "payload", "children")
    kind = _tuplegetter(1, None)
    payload = _tuplegetter(2, None)
    children = _tuplegetter(3, None)

    def __new__(cls, kind: str, payload: str = "",
                children: tuple[Expr, ...] = ()):
        return _new(cls, (cls, kind, payload, children))

    def __str__(self) -> str:
        if self.kind == "reg":
            return self.payload
        if self.kind == "cl2":
            return "cl2{" + self.payload + "}"
        if self.kind == "allx":
            return f"all[{self.payload}](" + str(self.children[0]) + ")"
        inner = ",".join(str(c) for c in self.children)
        return f"{self.kind}({inner})"

    def build(self) -> Machine:
        """A new machine for this expression, over forks of its
        sub-expressions' prototypes."""
        if self.kind == "reg":
            return build_machine(self.payload)
        if self.kind == "cl2":
            return cl2.solution_machine(fm.parse_formula(self.payload))
        kids = [_prototype(e).fork() for e in self.children]
        if self.kind == "mp":
            *parts, c = kids
            return MpMachine(parts, c)
        if self.kind == "trans":
            return transitivity_machine(*kids)
        if self.kind == "bang":
            return BangClosureMachine(kids[0])
        if self.kind == "allx":
            return AllClosureMachine(kids[0], self.payload)
        raise ValueError(f"unknown expression kind {self.kind!r}")

    def strategy(self) -> Strategy:
        return Strategy(_prototype(self).fork())


@functools.cache
def _prototype(expr: Expr) -> Machine:
    """The one machine built for `expr`; callers play forks of it, never the
    prototype itself.  A build that raises is not cached."""
    return expr.build()


def reg(strategy_id: str) -> Expr:
    return Expr("reg", strategy_id)


def mp(parts: list[Expr], c: Expr) -> Expr:
    return Expr("mp", children=tuple(parts) + (c,))


def trans(e1: Expr, e2: Expr) -> Expr:
    return Expr("trans", children=(e1, e2))


def bang(e: Expr) -> Expr:
    return Expr("bang", children=(e,))


def allx(e: Expr, var: str) -> Expr:
    return Expr("allx", var, (e,))


def cl2_expr(f: Formula) -> Expr:
    return Expr("cl2", fm.render(f))
