"""Propositional fragment: decision procedure, proof checker, extraction.

Formulas here use two sorts of nullary atoms: general (uppercase Atom) and
elementary (lowercase Elem, with top/bot counting as elementary).  The
derivation rules:

  (a)  from the set of all replacements of positive surface choice
       conjunctions (negative surface choice disjunctions) by their
       components, conclude a stable formula;
  (b)  from one replacement of a negative surface choice conjunction
       (positive surface choice disjunction) by its i-th component,
       conclude the formula;
  (c)  from a formula with a fresh elementary atom at two surface spots,
       conclude the formula with a general atom (one positive and one
       negative occurrence) at those spots.

A formula is stable when its elementarization -- surface choice
conjunctions replaced by top, disjunctions by bot, positive surface
general atoms by bot, negative by top -- is a classical tautology.

Proof search walks each formula once: `_Scan` records its surface choice
and general-atom occurrences with their polarities and its elementary
names, and rules (a), (b) and (c) read their instances from that record.
The proof checker reads the same record: a (b) or (c) step is justified
when its choice or atom pair is one the scan lists for its formula and it
cites that instance's premise.  Stability takes one more walk, which
computes the elementarization's truth table straight from the formula as
a bit set over all assignments to the surface elementary names (one bit
per assignment), without building the elementarized formula; the formula
is stable when every bit is set.

Extraction turns a proof of a general-base formula into a machine: (b)
steps fire their recorded choice move, (a) steps wait for the environment
to resolve one of theirs, and (c) steps open a copy-cat channel between
the two matched occurrences.  The checker's one pass over the proof
compiles each step into that instruction.  The one strategy wins every
substitutional instance, because only the connective skeleton determines
move prefixes.
"""

from __future__ import annotations

from . import formula as fm
from .epm import Machine, PlayContext
from .formula import (Atom, Bot, ChoiceConj, ChoiceDisj, Elem, Formula,
                      Implies, Neg, ParConj, ParDisj, Top, _new, _Node,
                      _tuplegetter)

Path = tuple[int, ...]

_CL2_NODES = (Atom, Elem, Top, Bot, Neg, ParConj, ParDisj, Implies,
              ChoiceConj, ChoiceDisj)


def _check_cl2(f: Formula) -> None:
    if not isinstance(f, _CL2_NODES):
        raise ValueError(f"not a propositional-fragment formula: {fm.render(f)}")
    if isinstance(f, Atom) and f.arity != 0:
        raise ValueError("atoms must be nullary here")
    for c in fm.children(f):
        _check_cl2(c)


# ---------------------------------------------------------------------------
# Elementarization, stability and rule instances

def elementarization(f: Formula) -> Formula:
    _check_cl2(f)
    return _elem(f, True)


def _elem(f: Formula, pos: bool) -> Formula:
    if isinstance(f, ChoiceConj):
        return Top()
    if isinstance(f, ChoiceDisj):
        return Bot()
    if isinstance(f, Atom):
        return Bot() if pos else Top()
    if isinstance(f, (Elem, Top, Bot)):
        return f
    if isinstance(f, Neg):
        return Neg(_elem(f.body, not pos))
    if isinstance(f, Implies):
        return Implies(_elem(f.left, not pos), _elem(f.right, pos))
    if isinstance(f, ParConj):
        return ParConj(tuple(_elem(p, pos) for p in f.parts))
    if isinstance(f, ParDisj):
        return ParDisj(tuple(_elem(p, pos) for p in f.parts))
    raise ValueError(f"unexpected node {f!r}")


def _table(f: Formula, pos: bool, rows: dict[str, int], full: int) -> int:
    """The rows where the elementarization of f (at polarity pos) is true:
    a bit set over all assignments, `rows` holding each name's."""
    cls = type(f)
    if cls is Elem:
        return rows[f.name]
    if cls is Atom:
        return 0 if pos else full
    if cls is Neg:
        return full ^ _table(f.body, not pos, rows, full)
    if cls is Implies:
        return (full ^ _table(f.left, not pos, rows, full)) \
            | _table(f.right, pos, rows, full)
    if cls is ParConj:
        out = full
        for p in f.parts:
            out &= _table(p, pos, rows, full)
        return out
    if cls is ParDisj:
        out = 0
        for p in f.parts:
            out |= _table(p, pos, rows, full)
        return out
    return full if cls is ChoiceConj or cls is Top else 0


class _Scan:
    """One preorder walk of a formula, which every rule instance reads:

    choices  surface choice occurrences, (path, node, positive?);
    atoms    surface general-atom occurrences, (path, letter, positive?);
    surface  the elementary names outside every choice, the only ones
             left in the elementarization;
    names    every elementary name, which rule (c)'s fresh name avoids.

    Raises ValueError when f is not a propositional-fragment formula.
    """

    __slots__ = ("f", "choices", "atoms", "surface", "names")

    def __init__(self, f: Formula):
        self.f = f
        self.choices: list[tuple[Path, Formula, bool]] = []
        self.atoms: list[tuple[Path, str, bool]] = []
        self.surface: set[str] = set()
        self.names: set[str] = set()
        self._walk(f, (), True, True)

    def _walk(self, g: Formula, path: Path, pos: bool, surface: bool):
        cls = type(g)
        if cls is Atom:
            if g.args:
                _check_cl2(g)                   # raises
            if surface:
                self.atoms.append((path, g.letter, pos))
        elif cls is Elem:
            self.names.add(g.name)
            if surface:
                self.surface.add(g.name)
        elif cls is Neg:
            self._walk(g.body, path + (0,), not pos, surface)
        elif cls is Implies:
            self._walk(g.left, path + (0,), not pos, surface)
            self._walk(g.right, path + (1,), pos, surface)
        elif cls is ParConj or cls is ParDisj:
            for k, p in enumerate(g.parts):
                self._walk(p, path + (k,), pos, surface)
        elif cls is ChoiceConj or cls is ChoiceDisj:
            if surface:
                self.choices.append((path, g, pos))
            for k, p in enumerate(g.parts):
                self._walk(p, path + (k,), pos, False)
        elif cls is not Top and cls is not Bot:
            _check_cl2(g)                       # raises

    def stable(self) -> bool:
        """Whether the elementarization is a classical tautology: its truth
        table, one bit per assignment to the surface names, is full.  Name
        k is true in the rows whose bit k is set, i.e. in the upper half of
        every block of 2^(k+1) rows."""
        full = (1 << (1 << len(self.surface))) - 1
        rows = {name: full // ((1 << (2 << k)) - 1)
                * (((1 << (1 << k)) - 1) << (1 << k))
                for k, name in enumerate(self.surface)}
        return _table(self.f, True, rows, full) == full

    def resolvable(self, env: bool) -> list[tuple[Path, Formula]]:
        """(path, node) for each surface choice the environment resolves
        (positive conjunctions, negative disjunctions: rule (a)) if env,
        else for each the machine resolves (rule (b))."""
        return [(path, g) for path, g, pos in self.choices
                if ((type(g) is ChoiceConj) == pos) == env]

    def premises(self, env: bool):
        """(path, i, premise) for each component of each choice
        `resolvable(env)` lists."""
        for path, g in self.resolvable(env):
            for i, part in enumerate(g.parts, start=1):
                yield path, i, fm.replace_at(self.f, path, part)

    def c_options(self):
        pos_occ: dict[str, list[Path]] = {}
        neg_occ: dict[str, list[Path]] = {}
        for path, letter, pos in self.atoms:
            (pos_occ if pos else neg_occ).setdefault(letter, []).append(path)
        for letter in sorted(pos_occ.keys() & neg_occ.keys()):
            name = base = letter.lower()
            k = 2
            while name in self.names:
                name = f"{base}_{k}"
                k += 1
            atom = Elem(name)
            for ppos in pos_occ[letter]:
                for pneg in neg_occ[letter]:
                    yield ppos, pneg, name, _c_premise(self.f, ppos, pneg, atom)


def _c_premise(f: Formula, ppos: Path, pneg: Path, atom: Elem) -> Formula:
    """Rule (c)'s premise: f with the elementary `atom` at two atom
    occurrences.  Their paths, of two distinct leaves, share a prefix and
    then part; every node on either path is copied once."""
    d = 0
    while ppos[d] == pneg[d]:
        d += 1
    g = f
    for k in ppos[:d]:
        g = fm.children(g)[k]
    kids = list(fm.children(g))
    for path in (ppos, pneg):
        kids[path[d]] = fm.replace_at(kids[path[d]], path[d + 1:], atom)
    g = Implies(*kids) if type(g) is Implies else type(g)(tuple(kids))
    return fm.replace_at(f, ppos[:d], g)


# ---------------------------------------------------------------------------
# Proof objects

class CL2Step(_Node):
    __slots__ = ()
    _fields = ("formula", "rule", "premises", "path", "index", "pos_path",
               "neg_path", "atom")
    formula = _tuplegetter(1, None)
    rule = _tuplegetter(2, None)                # "a" | "b" | "c"
    premises = _tuplegetter(3, None)
    path = _tuplegetter(4, None)                # rule (b)
    index = _tuplegetter(5, None)               # rule (b)
    pos_path = _tuplegetter(6, None)            # rule (c)
    neg_path = _tuplegetter(7, None)            # rule (c)
    atom = _tuplegetter(8, None)                # rule (c)

    def __new__(cls, formula: Formula, rule: str, premises=(), path=(),
                index=0, pos_path=(), neg_path=(), atom=""):
        return _new(cls, (cls, formula, rule, premises, path, index,
                          pos_path, neg_path, atom))


class CL2Proof(_Node):
    __slots__ = ()
    _fields = ("steps",)
    steps = _tuplegetter(1, None)               # conclusion last

    def __new__(cls, steps: tuple[CL2Step, ...]):
        return _new(cls, (cls, steps))

    @property
    def conclusion(self) -> Formula:
        return self.steps[-1].formula


class SearchBudgetExceeded(RuntimeError):
    pass


def prove(f: Formula, max_nodes: int = 500_000) -> CL2Proof | None:
    """Backward proof search; complete for this fragment, so None means
    refuted.  Raises SearchBudgetExceeded when the node budget runs out."""
    # formula -> a cell holding its node once searched; one setdefault per
    # call hashes the formula once, where a probe and a later store would
    # each hash it again
    memo: dict[Formula, list] = {}
    visits = [0]

    def search(g: Formula):
        cell = memo.setdefault(g, [])
        if cell:
            return cell[0]
        scan = _Scan(g)
        visits[0] += 1
        if visits[0] > max_nodes:
            raise SearchBudgetExceeded(
                f"proof search gave up after {max_nodes} nodes")
        node = None
        if scan.stable():
            kids = []
            for path, i, h in scan.premises(env=True):
                sub = search(h)
                if sub is None:
                    break
                kids.append((path, i, sub))
            else:
                node = ("a", g, kids)
        if node is None:
            for path, i, h in scan.premises(env=False):
                sub = search(h)
                if sub is not None:
                    node = ("b", g, path, i, sub)
                    break
        if node is None:
            for ppos, pneg, name, h in scan.c_options():
                sub = search(h)
                if sub is not None:
                    node = ("c", g, ppos, pneg, name, sub)
                    break
        cell.append(node)
        return node

    root = search(f)
    if root is None:
        return None
    steps: list[CL2Step] = []
    seen: dict[int, int] = {}

    def emit(node) -> int:
        if id(node) in seen:
            return seen[id(node)]
        if node[0] == "a":
            _, g, kids = node
            prem = tuple(sorted({emit(sub) for _, _, sub in kids}))
            step = CL2Step(g, "a", prem)
        elif node[0] == "b":
            _, g, path, i, sub = node
            step = CL2Step(g, "b", (emit(sub),), path=path, index=i)
        else:
            _, g, ppos, pneg, name, sub = node
            step = CL2Step(g, "c", (emit(sub),), pos_path=ppos,
                           neg_path=pneg, atom=name)
        steps.append(step)
        seen[id(node)] = len(steps) - 1
        return len(steps) - 1

    emit(root)
    return CL2Proof(tuple(steps))


def check_proof(proof: CL2Proof) -> tuple[bool, str]:
    """Re-derive every step's justification from the scan of its formula,
    the one proof search reads; returns (ok, diagnostic)."""
    why = _compile(proof)[1]
    return not why, why


def _compile(proof: CL2Proof) -> tuple[tuple, str]:
    """Check each step and compile it into what a `ProofMachine` does there,
    with its move strings:

    ("b", full choice move, next step)
    ("c", (channel prefix, channel prefix), next step)
    ("a", ((full choice move, premise), ...))

    A stable step pairs each environment choice's premise with the first
    cited step whose formula it is.  Returns the instructions, one per
    step, and "", or () and the first step's diagnostic."""
    if not proof.steps:
        return (), "empty proof"
    out = []
    for n, step in enumerate(proof.steps, start=1):
        if any(not 0 <= j < n - 1 for j in step.premises):
            return (), f"step {n}: premise reference out of range"
        cited = [proof.steps[j].formula for j in step.premises]
        f = step.formula
        try:
            scan = _Scan(f)
        except ValueError as e:
            return (), f"step {n}: {e}"
        if step.rule == "a":
            if not scan.stable():
                return (), f"step {n}: not stable"
            choices = list(scan.premises(env=True))
            first: dict[Formula, int] = {}
            for j, h in zip(step.premises, cited):
                first.setdefault(h, j)
            if {h for _, _, h in choices} != first.keys():
                return (), f"step {n}: premise set mismatch"
            out.append(("a", tuple((_move_prefix(f, path) + str(i), first[h])
                                   for path, i, h in choices)))
            continue
        if step.rule == "b":
            g = next((g for path, g in scan.resolvable(env=False)
                      if path == step.path), None)
            if g is None or not 1 <= step.index <= len(g.parts):
                return (), (f"step {n}: no machine choice at path "
                            f"{_path_str(step.path)}, index {step.index}")
            want = fm.replace_at(f, step.path, g.parts[step.index - 1])
            op = ("b", _move_prefix(f, step.path) + str(step.index))
        elif step.rule == "c":
            letters = {(path, pos): a for path, a, pos in scan.atoms}
            letter = letters.get((step.pos_path, True))
            if letter is None or letter != letters.get((step.neg_path, False)):
                return (), (f"step {n}: no positive and negative surface "
                            f"occurrence of one general atom at paths "
                            f"{_path_str(step.pos_path)},"
                            f"{_path_str(step.neg_path)}")
            if step.atom in scan.names:
                return (), f"step {n}: atom {step.atom} already occurs"
            want = _c_premise(f, step.pos_path, step.neg_path,
                              Elem(step.atom))
            op = ("c", (_move_prefix(f, step.pos_path),
                        _move_prefix(f, step.neg_path)))
        else:
            return (), f"step {n}: unknown rule {step.rule!r}"
        if cited != [want]:
            return (), f"step {n}: premise does not match replacement"
        out.append((*op, step.premises[0]))
    return tuple(out), ""


def _move_prefix(f: Formula, path: Path) -> str:
    out = []
    g = f
    for k in path:
        if isinstance(g, (ParConj, ParDisj, Implies)):
            out.append(f"{k + 1}.")
        g = fm.children(g)[k]
    return "".join(out)


# ---------------------------------------------------------------------------
# Text serialization (one step per line)

def _path_str(path: Path) -> str:
    return "e" if not path else ".".join(str(k) for k in path)


def _number(n: int, key: str, s: str) -> int:
    """Step n's `key` field (or one of its parts): ASCII digits, perhaps
    after a minus sign, which the checker then rejects with a reason."""
    s = s.strip()
    digits = s[1:] if s.startswith("-") else s
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"step {n}: {key}= holds {s!r}, not a number")
    return int(s)


def _parse_path(n: int, s: str) -> Path:
    s = s.strip()
    if s == "e":
        return ()
    return tuple(_number(n, "path", x) for x in s.split("."))


def proof_to_text(proof: CL2Proof) -> str:
    lines = []
    for idx, step in enumerate(proof.steps, start=1):
        parts = [f"{idx}. {fm.render(step.formula)}", f"rule={step.rule}",
                 "premises=[" + ",".join(str(j + 1) for j in step.premises) + "]"]
        if step.rule == "b":
            parts.append(f"path={_path_str(step.path)}")
            parts.append(f"i={step.index}")
        if step.rule == "c":
            parts.append(f"path={_path_str(step.pos_path)},{_path_str(step.neg_path)}")
            parts.append(f"atom={step.atom}")
        lines.append(" ; ".join(parts))
    return "\n".join(lines) + "\n"


# the fields each rule reads: every rule reads the first two, and needs
# the rest
_FIELDS = {"a": ("rule", "premises"), "b": ("rule", "premises", "path", "i"),
           "c": ("rule", "premises", "path", "atom")}


def proof_from_text(text: str) -> CL2Proof:
    steps: list[CL2Step] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, *fields = [p.strip() for p in line.split(";")]
        num, _, formula_text = head.partition(".")
        n = len(steps) + 1
        if num.strip() != str(n):
            raise ValueError(f"step {n} is numbered {num!r}")
        f = fm.parse_formula(formula_text)
        kv = {}
        for fld in fields:
            k, _, v = fld.partition("=")
            k = k.strip()
            if k in kv:
                raise ValueError(f"step {n}: {k}= is given twice")
            kv[k] = v.strip()
        rule = kv.get("rule", "")
        if rule not in _FIELDS:
            raise ValueError(f"bad proof line {line!r}")
        for key in kv:
            if key not in _FIELDS[rule]:
                raise ValueError(f"step {n}: rule={rule} takes no {key}=")
        prem_text = kv.get("premises", "[]").strip("[]")
        premises = tuple(_number(n, "premises", x) - 1
                         for x in prem_text.split(",") if x)
        if any(j < 0 for j in premises):
            raise ValueError(f"premise numbers start at 1: {line!r}")
        for key in _FIELDS[rule][2:]:
            if key not in kv:
                raise ValueError(f"step {n}: rule={rule} needs {key}=")
        if rule == "b":
            step = CL2Step(f, "b", premises, path=_parse_path(n, kv["path"]),
                           index=_number(n, "i", kv["i"]))
        elif rule == "c":
            ppos, _, pneg = kv["path"].partition(",")
            step = CL2Step(f, "c", premises, pos_path=_parse_path(n, ppos),
                           neg_path=_parse_path(n, pneg), atom=kv["atom"])
        else:
            step = CL2Step(f, "a", premises)
        steps.append(step)
    return CL2Proof(tuple(steps))


# ---------------------------------------------------------------------------
# Strategy extraction

class ProofMachine(Machine):
    """Plays the conclusion of a checked proof of a general-base formula.

    Walks the proof from the conclusion toward the axioms: choice steps
    fire immediately, channel steps open mirrors (catching up on any
    buffered adversary moves in the matched components), and stable steps
    wait for the environment to resolve one of their recorded choices.
    The checker's pass compiles the proof once per prototype into
    `instructions`, one immutable entry per step holding its move strings
    (see `_compile`); forks share it, so a play only reads it.
    """

    def __init__(self, proof: CL2Proof):
        self.instructions, why = _compile(proof)
        if why:
            raise ValueError(f"invalid proof: {why}")
        if not fm.is_general_base(proof.conclusion):
            raise ValueError("conclusion is not general-base")
        self.step = len(proof.steps) - 1
        self.channels: list[tuple[str, str]] = []
        self.log: list[str] = []
        self.waits: list[tuple[str, int]] = []   # (full choice move, premise)

    def start(self, ctx: PlayContext) -> list[str]:
        return self._advance()

    def _advance(self) -> list[str]:
        out: list[str] = []
        while True:
            op = self.instructions[self.step]
            if op[0] == "b":
                out.append(op[1])
                self.step = op[2]
            elif op[0] == "c":
                self.channels.append(op[1])
                out.extend(self._catch_up(*op[1]))
                self.step = op[2]
            else:
                self.waits = list(op[1])
                return out

    def _catch_up(self, pa: str, pb: str) -> list[str]:
        out = []
        keep = []
        for m in self.log:
            if m.startswith(pa):
                out.append(pb + m[len(pa):])
            elif m.startswith(pb):
                out.append(pa + m[len(pb):])
            else:
                keep.append(m)
        self.log = keep
        return out

    def on_env(self, move: str) -> list[str]:
        for pa, pb in self.channels:
            if move.startswith(pa):
                return [pb + move[len(pa):]]
            if move.startswith(pb):
                return [pa + move[len(pb):]]
        for full, prem in self.waits:
            if move == full:
                self.step = prem
                self.waits = []
                return self._advance()
        self.log.append(move)
        return []


def solution_machine(f: Formula) -> ProofMachine:
    """Prove f and extract a machine playing it.  Callers that play it more
    than once fork it (see `strategies`)."""
    proof = prove(f)
    if proof is None:
        raise ValueError(f"not provable: {fm.render(f)}")
    return ProofMachine(proof)
