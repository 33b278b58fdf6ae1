r"""Formula AST, parser, printer and syntactic utilities.

A term or formula node is the tuple of its class followed by its fields:
`Neg(P)` is the tuple `(Neg, P)`.  Nodes are immutable and hashable.

The surface grammar (ASCII):

    atoms        P, P(t1,...,tn)        uppercase letter, terms are
                                        lowercase variables or positive
                                        integer constants
    elementary   p, q, r                lowercase nullary atoms (only used
                                        by the propositional fragment)
    identifiers  [A-Za-z][A-Za-z0-9_]*  ASCII only, so that no two distinct
                                        names print alike; a letter starts
                                        uppercase, a variable lowercase
    constants    top, bot, $
    negation     ~F
    recurrence   !F
    quantifiers  @x.F   ?x.F
    parallel     F /\ G /\ ...          F \/ G \/ ...
    choice       F & G & ...            F + G + ...
    implication  F -> G                 right associative

Precedence, tightest first: prefix operators (~, !, @x., ?x.), then
/\ and &, then \/ and +, then ->.  Chains of one operator collect into a
single variadic node; mixing /\ with & (or \/ with +) at the same level
requires parentheses.  Sequents are written `F1, F2 => K` or `=> K`.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Optional

try:
    from _collections import _tuplegetter
except ImportError:                     # namedtuple's own fallback
    _tuplegetter = lambda index, doc: property(itemgetter(index), doc=doc)


# ---------------------------------------------------------------------------
# Terms
#
# Hashing and equality are the tuple's own, done in C: nodes of different
# classes differ in item 0, so P /\ Q, P \/ Q, P & Q and P + Q are distinct.
# Fields are read through namedtuple's item getter.

_new = tuple.__new__


class _Node(tuple):
    """A node with no fields; `_fields` names a subclass's fields.  The
    sequent, proof and strategy-expression records are built on it too."""
    __slots__ = ()
    _fields = ()

    def __new__(cls):
        return _new(cls, (cls,))

    def __getnewargs__(self):
        return self[1:]

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{n}={v!r}" for n, v in zip(self._fields, self[1:])) + ")"


class Var(_Node):
    __slots__ = ()
    name = _tuplegetter(1, None)

    def __new__(cls, name: str):
        return _new(cls, (cls, name))

    def __repr__(self):
        return self[1]


class Const(_Node):
    __slots__ = ()
    value = _tuplegetter(1, None)

    def __new__(cls, value: int):
        return _new(cls, (cls, value))

    def __repr__(self):
        return str(self[1])


Term = Var | Const


def _numeral(s: str) -> Optional[int]:
    """The value of an ASCII numeral [1-9][0-9]*, else None."""
    if s.isascii() and s.isdigit() and s[0] != "0":
        return int(s)
    return None


_VARIABLE = re.compile(r"[a-z][A-Za-z0-9_]*")


def term(x) -> Term:
    """Coerce a string/int into a Term: a constant is a positive int or an
    ASCII numeral [1-9][0-9]*, a variable an ASCII identifier starting with
    a lowercase letter, as in the formula syntax."""
    if isinstance(x, (Var, Const)):
        return x
    if isinstance(x, int) and x >= 1:
        return Const(x)
    if isinstance(x, str):
        n = _numeral(x)
        if n is not None:
            return Const(n)
        if _VARIABLE.fullmatch(x):
            return Var(x)
    raise ValueError(f"not a term: {x!r}")


# ---------------------------------------------------------------------------
# Formulas

class Atom(_Node):
    __slots__ = ()
    _fields = ("letter", "args")
    letter = _tuplegetter(1, None)      # uppercase identifier
    args = _tuplegetter(2, None)        # tuple of terms

    def __new__(cls, letter: str, args: tuple[Term, ...] = ()):
        return _new(cls, (cls, letter, args))

    @property
    def arity(self) -> int:
        return len(self[2])


class Elem(_Node):
    """Nullary elementary atom (lowercase); propositional fragment only."""
    __slots__ = ()
    _fields = ("name",)
    name = _tuplegetter(1, None)

    def __new__(cls, name: str):
        return _new(cls, (cls, name))


class Top(_Node):
    __slots__ = ()


class Bot(_Node):
    __slots__ = ()


class Dollar(_Node):
    __slots__ = ()


class _Unary(_Node):
    __slots__ = ()
    _fields = ("body",)
    body = _tuplegetter(1, None)

    def __new__(cls, body: "Formula"):
        return _new(cls, (cls, body))


class Neg(_Unary):
    __slots__ = ()


class Bang(_Unary):
    __slots__ = ()


class _Variadic(_Node):
    """A connective of two or more parts; `what` names it in errors."""
    __slots__ = ()
    _fields = ("parts",)
    parts = _tuplegetter(1, None)

    def __init_subclass__(cls, what: str):
        cls.what = what

    def __new__(cls, parts: tuple["Formula", ...]):
        if len(parts) < 2:
            raise ValueError(f"{cls.what} needs >= 2 parts")
        return _new(cls, (cls, parts))


class ParConj(_Variadic, what="parallel conjunction"):
    __slots__ = ()


class ParDisj(_Variadic, what="parallel disjunction"):
    __slots__ = ()


class ChoiceConj(_Variadic, what="choice conjunction"):
    __slots__ = ()


class ChoiceDisj(_Variadic, what="choice disjunction"):
    __slots__ = ()


class Implies(_Node):
    __slots__ = ()
    _fields = ("left", "right")
    left = _tuplegetter(1, None)
    right = _tuplegetter(2, None)

    def __new__(cls, left: "Formula", right: "Formula"):
        return _new(cls, (cls, left, right))


class _Quantifier(_Node):
    __slots__ = ()
    _fields = ("var", "body")
    var = _tuplegetter(1, None)
    body = _tuplegetter(2, None)

    def __new__(cls, var: str, body: "Formula"):
        return _new(cls, (cls, var, body))


class ChoiceAll(_Quantifier):
    __slots__ = ()


class ChoiceExists(_Quantifier):
    __slots__ = ()


Formula = (Atom | Elem | Top | Bot | Dollar | Neg | ParConj | ParDisj
           | Implies | ChoiceConj | ChoiceDisj | ChoiceAll | ChoiceExists
           | Bang)


def par_conj(parts) -> Formula:
    """Flat parallel conjunction; collapses 0/1-element lists."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("empty conjunction has no formula")
    if len(parts) == 1:
        return parts[0]
    return ParConj(parts)


def conj_impl(ctx, succ: Formula) -> Formula:
    """The flat implication from the conjunction of `ctx` to `succ`; just
    `succ` when the context is empty."""
    return Implies(par_conj(ctx), succ) if ctx else succ


# ---------------------------------------------------------------------------
# Syntactic utilities

def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (_Unary, _Quantifier)):
        return (f.body,)
    if isinstance(f, Implies):
        return (f.left, f.right)
    if isinstance(f, _Variadic):
        return f.parts
    return ()


_VARIADIC = frozenset({ParConj, ParDisj, ChoiceConj, ChoiceDisj})


def replace_at(f: Formula, path: tuple[int, ...], sub: Formula) -> Formula:
    """f with its subformula at `path` replaced by `sub`; only the nodes
    along the path are copied.  Raises IndexError for a path that leaves f."""
    if not path:
        return sub
    k = path[0]
    cls = type(f)
    if cls in _VARIADIC:
        parts = f.parts
        if 0 <= k < len(parts):
            return cls(parts[:k] + (replace_at(parts[k], path[1:], sub),)
                       + parts[k + 1:])
    elif cls is Implies:
        if k == 0:
            return Implies(replace_at(f.left, path[1:], sub), f.right)
        if k == 1:
            return Implies(f.left, replace_at(f.right, path[1:], sub))
    elif k == 0:
        if cls is Neg or cls is Bang:
            return cls(replace_at(f.body, path[1:], sub))
        if cls is ChoiceAll or cls is ChoiceExists:
            return cls(f.var, replace_at(f.body, path[1:], sub))
    raise IndexError(f"{cls.__name__} has no child {k}")


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset(t.name for t in f.args if isinstance(t, Var))
    if isinstance(f, (ChoiceAll, ChoiceExists)):
        return free_vars(f.body) - {f.var}
    out: frozenset[str] = frozenset()
    for c in children(f):
        out |= free_vars(c)
    return out


def all_vars(f: Formula) -> frozenset[str]:
    """Variables with any occurrence, free or bound (quantified vars count)."""
    if isinstance(f, Atom):
        return frozenset(t.name for t in f.args if isinstance(t, Var))
    if isinstance(f, (ChoiceAll, ChoiceExists)):
        return all_vars(f.body) | {f.var}
    out: frozenset[str] = frozenset()
    for c in children(f):
        out |= all_vars(c)
    return out


def letters_of(f: Formula) -> frozenset[tuple[str, int]]:
    if isinstance(f, Atom):
        return frozenset({(f.letter, f.arity)})
    out: frozenset[tuple[str, int]] = frozenset()
    for c in children(f):
        out |= letters_of(c)
    return out


def substitute(f: Formula, bindings) -> Formula:
    """Simultaneous substitution of free variable occurrences by terms.

    `bindings` is an iterable of (variable-name, term); variables must be
    pairwise distinct.  Bound occurrences are untouched; capture avoidance
    is the caller's concern (see is_free_for).
    """
    m = {}
    for x, t in bindings:
        if x in m:
            raise ValueError(f"variable {x} bound twice")
        m[x] = term(t)
    return _subst(f, m)


def _subst(f: Formula, m: dict) -> Formula:
    if not m:
        return f
    if isinstance(f, Atom):
        return Atom(f.letter, tuple(
            m.get(t.name, t) if isinstance(t, Var) else t for t in f.args))
    if isinstance(f, (ChoiceAll, ChoiceExists)):
        inner = {x: t for x, t in m.items() if x != f.var}
        return type(f)(f.var, _subst(f.body, inner))
    kids = children(f)
    if not kids:
        return f
    out = f
    for k, c in enumerate(kids):
        out = replace_at(out, (k,), _subst(c, m))
    return out


def is_free_for(t, x: str, f: Formula) -> bool:
    """True iff no free occurrence of x in f lies under a quantifier binding t."""
    t = term(t)
    if isinstance(t, Const):
        return True
    return _free_for(t.name, x, f)


def _free_for(tname: str, x: str, f: Formula) -> bool:
    if isinstance(f, Atom):
        return True
    if isinstance(f, (ChoiceAll, ChoiceExists)):
        if f.var == x:
            return True                      # x bound below; no free occurrence
        if f.var == tname and x in free_vars(f.body):
            return False
        return _free_for(tname, x, f.body)
    return all(_free_for(tname, x, c) for c in children(f))


def is_int_formula(f: Formula) -> bool:
    """Membership in the resource-logic sublanguage.

    Allowed: nonlogical atoms, $, choice connectives/quantifiers, and
    implications whose antecedent is a banged subformula (the encoded
    resource implication).
    """
    if isinstance(f, Atom):
        return True
    if isinstance(f, Dollar):
        return True
    if isinstance(f, (ChoiceConj, ChoiceDisj)):
        return all(is_int_formula(p) for p in f.parts)
    if isinstance(f, (ChoiceAll, ChoiceExists)):
        return is_int_formula(f.body)
    if isinstance(f, Implies) and isinstance(f.left, Bang):
        return is_int_formula(f.left.body) and is_int_formula(f.right)
    return False


def is_general_base(f: Formula) -> bool:
    """No elementary atoms (top/bot included), no quantifiers, no !, no $."""
    if isinstance(f, (Elem, Top, Bot, Dollar, ChoiceAll, ChoiceExists, Bang)):
        return False
    if isinstance(f, Atom):
        return f.arity == 0
    return all(is_general_base(c) for c in children(f))


# ---------------------------------------------------------------------------
# Sequents

class Sequent(_Node):
    __slots__ = ()
    _fields = ("context", "succedent")
    context = _tuplegetter(1, None)
    succedent = _tuplegetter(2, None)

    def __new__(cls, context: tuple[Formula, ...], succedent: Formula):
        for g in context + (succedent,):
            if not is_int_formula(g):
                raise ValueError(f"not in the sublanguage: {render(g)}")
        return _new(cls, (cls, context, succedent))


def sequent_to_formula(s: Sequent) -> Formula:
    """Read a sequent as a formula: bang every context member, conjoin, imply."""
    if not s.context:
        return s.succedent
    return Implies(par_conj([Bang(e) for e in s.context]), s.succedent)


# ---------------------------------------------------------------------------
# Printing

_PREC_IMP = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_PREFIX = 4
_VARIADIC_OPS = {ParConj: (" /\\ ", _PREC_AND), ChoiceConj: (" & ", _PREC_AND),
                 ParDisj: (" \\/ ", _PREC_OR), ChoiceDisj: (" + ", _PREC_OR)}


def render(f: Formula) -> str:
    return _render(f, 0)


def _render(f: Formula, ctx: int) -> str:
    if isinstance(f, Atom):
        if not f.args:
            return f.letter
        return f.letter + "(" + ",".join(repr(t) for t in f.args) + ")"
    if isinstance(f, Elem):
        return f.name
    if isinstance(f, Top):
        return "top"
    if isinstance(f, Bot):
        return "bot"
    if isinstance(f, Dollar):
        return "$"
    if isinstance(f, Neg):
        return "~" + _render(f.body, _PREC_PREFIX)
    if isinstance(f, Bang):
        return "!" + _render(f.body, _PREC_PREFIX)
    if isinstance(f, ChoiceAll):
        return f"@{f.var}." + _render(f.body, _PREC_PREFIX)
    if isinstance(f, ChoiceExists):
        return f"?{f.var}." + _render(f.body, _PREC_PREFIX)
    if isinstance(f, Implies):
        s = _render(f.left, _PREC_IMP + 1) + " -> " + _render(f.right, _PREC_IMP)
        return "(" + s + ")" if ctx > _PREC_IMP else s
    op, prec = _VARIADIC_OPS[type(f)]
    s = op.join(_render(p, prec + 1) for p in f.parts)
    return "(" + s + ")" if ctx > prec else s


def render_sequent(s: Sequent) -> str:
    ctx = ", ".join(render(g) for g in s.context)
    return (ctx + " => " if ctx else "=> ") + render(s.succedent)


# ---------------------------------------------------------------------------
# Parsing

class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


# One alternative per token kind, tried in order at each position:
# whitespace, the symbols (two-character ones first), numerals,
# identifiers, and any other single character, which is an error.
_TOKEN = re.compile(r"(?P<space>\s+)|(?P<symbol>->|/\\|\\/|=>|[(),.~!@?&+$])"
                    r"|(?P<INT>[0-9]+)|(?P<IDENT>[A-Za-z][A-Za-z0-9_]*)"
                    r"|(?P<bad>.)", re.DOTALL)


def _tokenize(text: str):
    """(kind, text, position) per token, ending with EOF; a symbol is its
    own kind."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        tok = m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", m.start())
        toks.append((tok if kind == "symbol" else kind, tok, m.start()))
    toks.append(("EOF", "", len(text)))
    return toks


# each chain operator: its node class and the other operator of its level,
# which may not follow it unparenthesized
_DISJUNCTIONS = {"\\/": (ParDisj, "+"), "+": (ChoiceDisj, "\\/")}
_CONJUNCTIONS = {"/\\": (ParConj, "&"), "&": (ChoiceConj, "/\\")}


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, got {t[1]!r}", t[2])
        return t

    def fail(self, msg):
        raise ParseError(msg, self.peek()[2])

    # -- grammar -----------------------------------------------------------

    def formula(self) -> Formula:
        return self.implication()

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "->":
            self.next()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        return self.chain(_DISJUNCTIONS, self.conjunction)

    def conjunction(self) -> Formula:
        return self.chain(_CONJUNCTIONS, self.prefix)

    def chain(self, ops, operand) -> Formula:
        """One operand, or a chain of one operator of `ops` collected into a
        single variadic node."""
        first = operand()
        sym = self.peek()[0]
        if sym not in ops:
            return first
        cls, other = ops[sym]
        parts = [first]
        while self.peek()[0] == sym:
            self.next()
            parts.append(operand())
        if self.peek()[0] == other:
            self.fail(f"mixing {sym!r} and {other!r} needs parentheses")
        return cls(tuple(parts))

    def prefix(self) -> Formula:
        kind, val, pos = self.peek()
        if kind == "~":
            self.next()
            return Neg(self.prefix())
        if kind == "!":
            self.next()
            return Bang(self.prefix())
        if kind in ("@", "?"):
            self.next()
            v = self.expect("IDENT")[1]
            if not v[0].islower():
                raise ParseError("quantified variable must be lowercase", pos)
            self.expect(".")
            body = self.prefix()
            return ChoiceAll(v, body) if kind == "@" else ChoiceExists(v, body)
        return self.atom()

    def atom(self) -> Formula:
        kind, val, pos = self.next()
        if kind == "(":
            f = self.formula()
            self.expect(")")
            return f
        if kind == "$":
            return Dollar()
        if kind == "IDENT":
            if val == "top":
                return Top()
            if val == "bot":
                return Bot()
            if val[0].isupper():
                if self.peek()[0] == "(":
                    self.next()
                    args = [self.term()]
                    while self.peek()[0] == ",":
                        self.next()
                        args.append(self.term())
                    self.expect(")")
                    return Atom(val, tuple(args))
                return Atom(val)
            return Elem(val)
        raise ParseError(f"unexpected token {val!r}", pos)

    def term(self) -> Term:
        kind, val, pos = self.next()
        if kind == "INT":
            v = _numeral(val)
            if v is None:
                raise ParseError(f"constants are numerals 1, 2, ..., got"
                                 f" {val!r}", pos)
            return Const(v)
        if kind == "IDENT" and val[0].islower():
            return Var(val)
        raise ParseError(f"expected a term, got {val!r}", pos)


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    if p.peek()[0] != "EOF":
        p.fail(f"trailing input {p.peek()[1]!r}")
    _check_arities(f, {})
    return f


def _check_arities(f: Formula, seen: dict):
    if isinstance(f, Atom):
        old = seen.setdefault(f.letter, f.arity)
        if old != f.arity:
            raise ParseError(
                f"letter {f.letter} used with arities {old} and {f.arity}", 0)
    for c in children(f):
        _check_arities(c, seen)


def parse_sequent(text: str) -> Sequent:
    if "=>" not in text:
        raise ParseError("a sequent needs '=>'", 0)
    left, right = text.split("=>", 1)
    succ = parse_formula(right)
    ctx = ()
    if left.strip():
        ctx = tuple(parse_formula(ch) for ch in split_top_level(left))
    arities: dict = {}                  # one letter, one arity, sequent-wide
    for f in ctx + (succ,):
        _check_arities(f, arities)
    return Sequent(ctx, succ)


def split_top_level(text: str) -> list[str]:
    """The pieces of `text` between the commas outside all brackets."""
    depth = 0
    start = 0
    chunks = []
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            chunks.append(text[start:i])
            start = i + 1
    chunks.append(text[start:])
    return chunks
