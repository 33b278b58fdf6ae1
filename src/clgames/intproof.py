"""Sequent calculus: rule checking and compilation to winning strategies.

A proof is a tree of sequents.  check_proof validates every node: its
rule derives the premises from the conclusion and side data (eigenvariable
freshness, term free-for-variable, index bounds), and those must be the
node's premises.  compile maps a checked proof to a strategy expression
for the sequent read as a formula; each rule case composes the named
strategies with extracted propositional solutions via modus ponens and
transitivity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import formula as fm
from .formula import (Atom, Bang, ChoiceAll, ChoiceConj, ChoiceDisj,
                      ChoiceExists, Dollar, Formula, Implies, ParConj,
                      Sequent, Var, conj_impl, par_conj)
from .strategies import Expr, allx, bang, cl2_expr, mp, reg, trans

RULES = ("Identity", "Domination", "Exchange", "Weakening", "Contraction",
         "RightImpl", "LeftImpl",
         "RightChoiceConj", "LeftChoiceConj",
         "RightChoiceDisj", "LeftChoiceDisj",
         "RightChoiceAll", "LeftChoiceAll",
         "RightChoiceExists", "LeftChoiceExists")


@dataclass(frozen=True)
class ProofNode:
    sequent: Sequent
    rule: str
    children: tuple["ProofNode", ...] = ()
    i: int = 0            # component index (LeftChoiceConj / RightChoiceDisj)
    t: str = ""           # term text (LeftChoiceAll / RightChoiceExists)
    y: str = ""           # eigenvariable (RightChoiceAll / LeftChoiceExists)
    pos: int = -1         # swap position (Exchange)

    def rules_used(self) -> frozenset[str]:
        out = frozenset({self.rule})
        for c in self.children:
            out |= c.rules_used()
        return out


def _seq_vars(s: Sequent) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for g in s.context + (s.succedent,):
        out |= fm.all_vars(g)
    return out


class _Misfit(Exception):
    """The conclusion or the side data do not fit the rule, and why."""


# The choice rules, each the dual of the other side's: whether it acts on
# the succedent or on the last context formula, the connective that
# formula must have, and what replaces it in the premises: every
# component (one premise each), component i, the body at the
# eigenvariable y, or the body at the term t.
_CHOICE = {
    "RightChoiceConj": (True, ChoiceConj, "each"),
    "LeftChoiceConj": (False, ChoiceConj, "i"),
    "RightChoiceDisj": (True, ChoiceDisj, "i"),
    "LeftChoiceDisj": (False, ChoiceDisj, "each"),
    "RightChoiceAll": (True, ChoiceAll, "y"),
    "LeftChoiceAll": (False, ChoiceAll, "t"),
    "RightChoiceExists": (True, ChoiceExists, "t"),
    "LeftChoiceExists": (False, ChoiceExists, "y"),
}
_KIND = {ChoiceConj: "a choice conjunction", ChoiceDisj: "a choice disjunction",
         ChoiceAll: "choice-quantified", ChoiceExists: "choice-quantified"}


def _premises(node: ProofNode) -> list[Sequent]:
    """The premises that `node`'s rule derives its conclusion from, fixed
    by the conclusion and the node's side data; _Misfit when they do not
    fit the rule."""
    s, rule = node.sequent, node.rule
    ctx, succ = s.context, s.succedent
    if rule in _CHOICE:
        right, conn, by = _CHOICE[rule]
        f = succ if right else ctx[-1] if ctx else None
        if not isinstance(f, conn):
            where = "succedent" if right else "last context formula"
            raise _Misfit(f"{where} must be {_KIND[conn]}")
        if by == "each":
            fs = f.parts
        elif by == "i":
            if not 1 <= node.i <= len(f.parts):
                raise _Misfit("component index out of range")
            fs = (f.parts[node.i - 1],)
        elif by == "y":
            if not node.y or node.y in _seq_vars(s):
                raise _Misfit(
                    f"eigenvariable {node.y!r} occurs in the conclusion")
            fs = (fm.substitute(f.body, [(f.var, Var(node.y))]),)
        else:
            try:
                t = fm.term(node.t)
            except ValueError as e:
                raise _Misfit(str(e)) from None
            if not fm.is_free_for(t, f.var, f.body):
                raise _Misfit(f"term {node.t} is not free for {f.var}")
            fs = (fm.substitute(f.body, [(f.var, t)]),)
        if right:
            return [Sequent(ctx, g) for g in fs]
        return [Sequent(ctx[:-1] + (g,), succ) for g in fs]
    if rule == "Identity":
        if ctx != (succ,):
            raise _Misfit("conclusion must be K => K")
        return []
    if rule == "Domination":
        if ctx != (Dollar(),):
            raise _Misfit("conclusion must be $ => K")
        return []
    if rule == "Exchange":
        k = node.pos
        if not 0 <= k < len(ctx) - 1:
            raise _Misfit("swap position out of range")
        return [Sequent(ctx[:k] + (ctx[k + 1], ctx[k]) + ctx[k + 2:], succ)]
    if rule == "RightImpl":
        if not (isinstance(succ, Implies) and isinstance(succ.left, Bang)):
            raise _Misfit("succedent must be a resource implication")
        return [Sequent(ctx + (succ.left.body,), succ.right)]
    if not ctx:
        raise _Misfit("conclusion context must not be empty")
    if rule == "Weakening":
        return [Sequent(ctx[:-1], succ)]
    if rule == "Contraction":
        return [Sequent(ctx + (ctx[-1],), succ)]
    # LeftImpl: G, H, !K -> F => E from G, F => E and H => K; |G| is read
    # from the first premise
    last = ctx[-1]
    if not (isinstance(last, Implies) and isinstance(last.left, Bang)):
        raise _Misfit("last context formula must be a resource implication")
    g = len(node.children[0].sequent.context) - 1 if node.children else 0
    if not 0 <= g < len(ctx):
        raise _Misfit("first premise's context does not split the conclusion's")
    return [Sequent(ctx[:g] + (last.right,), succ),
            Sequent(ctx[g:-1], last.left.body)]


def check_rule(node: ProofNode) -> tuple[bool, str]:
    """Validate one node: its conclusion and side data fit its rule, and its
    premises are the ones the rule derives the conclusion from."""
    def bad(msg: str) -> tuple[bool, str]:
        return False, f"{node.rule} at {fm.render_sequent(node.sequent)}: {msg}"

    if node.rule not in RULES:
        return bad("unknown rule")
    try:
        want = _premises(node)
    except _Misfit as e:
        return bad(str(e))
    kids = node.children
    if len(kids) != len(want):
        return bad(f"takes {len(want)} premise(s), not {len(kids)}")
    for j, (kid, w) in enumerate(zip(kids, want), 1):
        if kid.sequent != w:
            return bad(f"premise {j} must be {fm.render_sequent(w)}")
    return True, ""


def check_proof(node: ProofNode) -> tuple[bool, str]:
    ok, why = check_rule(node)
    if not ok:
        return ok, why
    for kid in node.children:
        ok, why = check_proof(kid)
        if not ok:
            return ok, why
    return True, ""


# ---------------------------------------------------------------------------
# Compilation

def _atoms(prefix: str, n: int) -> list[Formula]:
    return [Atom(f"{prefix}{j + 1}") for j in range(n)]


def _lift_inst(m: int) -> Formula:
    """(R -> S) -> (X1 /\\ .. /\\ Xm /\\ R -> X1 /\\ .. /\\ Xm /\\ S)."""
    xs = _atoms("X", m)
    r, s = Atom("R0"), Atom("S0")
    return Implies(Implies(r, s), Implies(par_conj(xs + [r]), par_conj(xs + [s])))


def _lift_ctx(e: Expr, m: int) -> Expr:
    """From a strategy for R -> S, one for X-context /\\ R -> X-context /\\ S."""
    if m == 0:
        return e
    return mp([e], cl2_expr(_lift_inst(m)))


def compile_proof(node: ProofNode) -> Expr:
    ok, why = check_proof(node)
    if not ok:
        raise ValueError(f"invalid proof: {why}")
    return _compile(node)


def _compile(node: ProofNode) -> Expr:
    s = node.sequent
    rule = node.rule
    m = len(s.context) - 1
    ihs = [_compile(kid) for kid in node.children]

    if rule == "Identity":
        return reg("l6a")

    if rule == "Domination":
        return reg(f"l6b[K={fm.render(s.succedent)}]")

    if rule == "Exchange":
        prem_ctx = node.children[0].sequent.context
        n = len(prem_ctx)
        xs = _atoms("X", n)
        z = Atom("Z0")
        swapped = list(xs)
        swapped[node.pos], swapped[node.pos + 1] = \
            swapped[node.pos + 1], swapped[node.pos]
        inst = Implies(conj_impl(xs, z), conj_impl(swapped, z))
        return mp([ihs[0]], cl2_expr(inst))

    if rule == "Weakening":
        n = len(node.children[0].sequent.context)
        xs = _atoms("X", n)
        z = Atom("Z0")
        inst = Implies(conj_impl(xs, z), conj_impl(xs + [Atom("P0")], z))
        return mp([ihs[0]], cl2_expr(inst))

    if rule == "Contraction":
        xs = _atoms("X", m)
        f0, z = Atom("F0"), Atom("Z0")
        inst = Implies(Implies(f0, ParConj((f0, f0))),
                       Implies(par_conj(xs + [f0]), par_conj(xs + [f0, f0])))
        half = mp([reg("l6c")], cl2_expr(inst))
        return trans(half, ihs[0])

    if rule == "RightImpl":
        g = len(s.context)
        if g == 0:
            return ihs[0]
        xs = _atoms("X", g)
        p0, z = Atom("P0"), Atom("Z0")
        inst = Implies(conj_impl(xs + [p0], z), conj_impl(xs, Implies(p0, z)))
        return mp([ihs[0]], cl2_expr(inst))

    if rule == "LeftImpl":
        p1, p2 = node.children
        gm = len(p1.sequent.context) - 1
        h = len(p2.sequent.context)
        # consequent-side double lift of the second premise
        if h == 0:
            e5 = bang(bang(ihs[1]))
        else:
            pairs = [Implies(Atom(f"A{j + 1}"), Atom(f"B{j + 1}"))
                     for j in range(h)]
            c1 = Implies(par_conj(pairs),
                         Implies(par_conj(_atoms("A", h)),
                                 par_conj(_atoms("B", h))))
            d2 = mp([reg("l5")] * h, cl2_expr(c1))
            d3 = trans(d2, reg("ccs") if h == 1 else reg(f"l4a[n={h}]"))
            d4 = trans(d3, reg("l5"))
            inner = bang(ihs[1])
            s1 = mp([inner], reg("l4"))
            s2 = mp([bang(s1)], reg("l4"))
            e5 = trans(d4, s2)
        # (P -> (Q -> T)) /\ (W-> Q) -> (P -> (W -> T))
        ws = _atoms("W", h)
        pa, qa, ta = Atom("P0"), Atom("Q0"), Atom("T0")
        inst_e = Implies(par_conj([Implies(pa, Implies(qa, ta)),
                                   conj_impl(ws, qa)]),
                         Implies(pa, conj_impl(ws, ta)))
        e6 = mp([reg("l4"), e5], cl2_expr(inst_e))
        # (P -> (W -> Q)) /\ (X /\ Q -> T) -> (X /\ W /\ P -> T)
        xs = _atoms("X", gm)
        qf, za = Atom("Q0"), Atom("Z0")
        inst_f = Implies(par_conj([Implies(pa, conj_impl(ws, qf)),
                                   conj_impl(xs + [qf], za)]),
                         conj_impl(xs + ws + [pa], za))
        return mp([e6, ihs[0]], cl2_expr(inst_f))

    if rule == "RightChoiceConj":
        n = len(node.children)
        xs = _atoms("X", len(s.context))
        ss = _atoms("S", n)
        inst = Implies(par_conj([conj_impl(xs, si) for si in ss]),
                       conj_impl(xs, ChoiceConj(tuple(ss))))
        return mp(ihs, cl2_expr(inst))

    if rule == "LeftChoiceConj":
        n = len(s.context[-1].parts)
        half = _lift_ctx(reg(f"l11a[i={node.i},n={n}]"), m)
        return trans(half, ihs[0])

    if rule == "RightChoiceDisj":
        n = len(s.succedent.parts)
        xs = _atoms("X", len(s.context))
        ss = _atoms("S", n)
        inst = Implies(conj_impl(xs, ss[node.i - 1]),
                       conj_impl(xs, ChoiceDisj(tuple(ss))))
        return mp([ihs[0]], cl2_expr(inst))

    if rule == "LeftChoiceDisj":
        n = len(s.context[-1].parts)
        xs = _atoms("X", m)
        ss = _atoms("S", n)
        za = Atom("Z0")
        inst = Implies(par_conj([conj_impl(xs + [sj], za) for sj in ss]),
                       conj_impl(xs + [ChoiceDisj(tuple(ss))], za))
        e10 = mp(ihs, cl2_expr(inst))
        half = _lift_ctx(reg(f"l11c[n={n}]"), m)
        return trans(half, e10)

    if rule == "RightChoiceAll":
        g = len(s.context)
        lifted = allx(ihs[0], node.y)
        if g == 0:
            return mp([lifted], reg("oct99"))
        s1 = mp([lifted], reg("oct5a"))
        s2 = trans(reg("oct5c"), s1)
        return trans(s2, reg("oct99"))

    if rule == "LeftChoiceAll":
        half = _lift_ctx(reg(f"l11b[t={node.t}]"), m)
        return trans(half, ihs[0])

    if rule == "RightChoiceExists":
        if not s.context:
            return mp([ihs[0]], reg(f"oct5b[t={node.t}]"))
        return trans(ihs[0], reg(f"oct5b[t={node.t}]"))

    if rule == "LeftChoiceExists":
        s1 = allx(ihs[0], node.y)
        s2 = mp([s1], reg(f"oct5d[n={m}]"))
        if m == 0:
            s4 = s2
        else:
            pairs = [Implies(Atom(f"X{j + 1}"), Atom(f"A{j + 1}"))
                     for j in range(m)]
            ea = Atom("E0")
            c3 = Implies(par_conj(pairs),
                         Implies(par_conj(_atoms("X", m) + [ea]),
                                 par_conj(_atoms("A", m) + [ea])))
            s3 = mp([reg("oct5c")] * m, cl2_expr(c3))
            s4 = trans(s3, s2)
        s5 = trans(s4, reg("exists_drop"))
        s6 = _lift_ctx(reg("oct99"), m)
        s7 = trans(s6, s5)
        s8 = _lift_ctx(reg("l11d"), m)
        return trans(s8, s7)

    raise AssertionError(f"unhandled rule {rule}")


# ---------------------------------------------------------------------------
# JSON proof files

def proof_to_json(node: ProofNode) -> dict:
    out = {"sequent": fm.render_sequent(node.sequent), "rule": node.rule}
    if node.i:
        out["i"] = node.i
    if node.t:
        out["t"] = node.t
    if node.y:
        out["y"] = node.y
    if node.pos >= 0:
        out["pos"] = node.pos
    if node.children:
        out["premises"] = [proof_to_json(c) for c in node.children]
    return out


def proof_from_json(obj) -> ProofNode:
    """A proof tree from its JSON form, as text or parsed; ValueError when a
    node has the wrong shape."""
    return _node_from_json(json.loads(obj) if isinstance(obj, str) else obj)


def _node_from_json(obj) -> ProofNode:
    if not (isinstance(obj, dict) and isinstance(obj.get("sequent"), str)
            and isinstance(obj.get("rule"), str)
            and isinstance(obj.get("premises", []), list)
            and isinstance(obj.get("i", 0), int)
            and isinstance(obj.get("pos", -1), int)
            and isinstance(obj.get("y", ""), str)):
        raise ValueError(f"malformed proof node {obj!r:.60}: sequent, rule"
                         f" and y are strings, premises a list, i and pos ints")
    return ProofNode(
        sequent=fm.parse_sequent(obj["sequent"]),
        rule=obj["rule"],
        children=tuple(_node_from_json(c) for c in obj.get("premises", [])),
        i=obj.get("i", 0),
        t=str(obj.get("t", "")),
        y=obj.get("y", ""),
        pos=obj.get("pos", -1),
    )


# ---------------------------------------------------------------------------
# Curated derivations exercising every rule

def _seq(text: str) -> Sequent:
    return fm.parse_sequent(text)


def _identity(text: str) -> ProofNode:
    return ProofNode(_seq(text), "Identity")


def curated_theorem_corpus() -> list[tuple[str, ProofNode]]:
    """Named derivations covering all 15 rules at least once."""
    out: list[tuple[str, ProofNode]] = []

    out.append(("identity", _identity("P => P")))

    out.append(("domination-atom",
                ProofNode(_seq("$ => P"), "Domination")))

    out.append(("domination-mixed",
                ProofNode(_seq("$ => P & ?x.R(x)"), "Domination")))

    out.append(("impl-intro",
                ProofNode(_seq("=> !P -> P"), "RightImpl",
                          (_identity("P => P"),))))

    weak_pq = ProofNode(_seq("P, Q => P"), "Weakening", (_identity("P => P"),))
    out.append(("nested-impl",
                ProofNode(_seq("=> !P -> (!Q -> P)"), "RightImpl",
                          (ProofNode(_seq("P => !Q -> P"), "RightImpl",
                                     (weak_pq,)),))))

    out.append(("exchange",
                ProofNode(_seq("Q, P => P"), "Exchange", (weak_pq,), pos=0)))

    both = ProofNode(_seq("P, P => P & P"), "RightChoiceConj",
                     (ProofNode(_seq("P, P => P"), "Weakening",
                                (_identity("P => P"),)),
                      ProofNode(_seq("P, P => P"), "Weakening",
                                (_identity("P => P"),))))
    out.append(("contraction",
                ProofNode(_seq("P => P & P"), "Contraction", (both,))))

    out.append(("conj-left",
                ProofNode(_seq("P & Q => P"), "LeftChoiceConj",
                          (_identity("P => P"),), i=1)))

    out.append(("disj-right",
                ProofNode(_seq("P => P + Q"), "RightChoiceDisj",
                          (_identity("P => P"),), i=1)))

    out.append(("disj-swap",
                ProofNode(_seq("P + Q => Q + P"), "LeftChoiceDisj",
                          (ProofNode(_seq("P => Q + P"), "RightChoiceDisj",
                                     (_identity("P => P"),), i=2),
                           ProofNode(_seq("Q => Q + P"), "RightChoiceDisj",
                                     (_identity("Q => Q"),), i=1)))))

    out.append(("impl-elim",
                ProofNode(_seq("Q, !Q -> P => P"), "LeftImpl",
                          (_identity("P => P"), _identity("Q => Q")))))

    out.append(("conj-swap",
                ProofNode(_seq("=> !(P & Q) -> Q & P"), "RightImpl",
                          (ProofNode(_seq("P & Q => Q & P"), "RightChoiceConj",
                                     (ProofNode(_seq("P & Q => Q"),
                                                "LeftChoiceConj",
                                                (_identity("Q => Q"),), i=2),
                                      ProofNode(_seq("P & Q => P"),
                                                "LeftChoiceConj",
                                                (_identity("P => P"),), i=1))),))))

    out.append(("all-instantiate",
                ProofNode(_seq("@x.R(x) => R(3)"), "LeftChoiceAll",
                          (_identity("R(3) => R(3)"),), t="3")))

    out.append(("exists-witness",
                ProofNode(_seq("R(3) => ?x.R(x)"), "RightChoiceExists",
                          (_identity("R(3) => R(3)"),), t="3")))

    out.append(("all-rename",
                ProofNode(_seq("@x.R(x) => @z.R(z)"), "RightChoiceAll",
                          (ProofNode(_seq("@x.R(x) => R(y)"), "LeftChoiceAll",
                                     (_identity("R(y) => R(y)"),), t="y"),),
                          y="y")))

    out.append(("exists-rename",
                ProofNode(_seq("?x.R(x) => ?z.R(z)"), "LeftChoiceExists",
                          (ProofNode(_seq("R(y) => ?z.R(z)"),
                                     "RightChoiceExists",
                                     (_identity("R(y) => R(y)"),), t="y"),),
                          y="y")))

    return out
