import json
import random
import sys

import pytest

from clgames import formula as fm, intproof, verify
from clgames.epm import RandomEnv, simulate, wins_against_all
from clgames.formula import (Bang, ChoiceAll, ChoiceConj, ChoiceDisj,
                             ChoiceExists, Dollar, Implies, Sequent, Var)
from clgames.games import GameRef, T, Valuation, random_interpretation
from clgames.intproof import (RULES, ProofNode, _seq_vars, check_proof,
                              check_rule, compile_proof,
                              curated_theorem_corpus, proof_from_json,
                              proof_to_json)


def replace(record, **changes):
    """`record` rebuilt from its fields, with those in `changes` replaced."""
    fields = dict(zip(record._fields, record[1:]))
    return type(record)(**(fields | changes))


def seq(text):
    return fm.parse_sequent(text)


def identity(text):
    return ProofNode(seq(text), "Identity")


class TestCheckRule:
    def test_identity(self):
        ok, _ = check_rule(identity("P => P"))
        assert ok
        ok, why = check_rule(identity("P => Q"))
        assert not ok

    def test_domination(self):
        ok, _ = check_rule(ProofNode(seq("$ => P & Q"), "Domination"))
        assert ok
        ok, _ = check_rule(ProofNode(seq("P => P"), "Domination"))
        assert not ok

    def test_eigenvariable_freshness(self):
        # y occurs in the conclusion: rejected
        node = ProofNode(seq("R(y) => @x.Q(x)"), "RightChoiceAll",
                         (ProofNode(seq("R(y) => Q(y)"), "Identity"),), y="y")
        ok, why = check_rule(node)
        assert not ok and "eigenvariable" in why
        good = ProofNode(seq("@x.R(x) => @z.R(z)"), "RightChoiceAll",
                         (ProofNode(seq("@x.R(x) => R(w)"), "LeftChoiceAll",
                                    (identity("R(w) => R(w)"),), t="w"),),
                         y="w")
        ok, why = check_rule(good)
        assert ok, why

    def test_free_for_violation(self):
        # instantiating with a variable that gets captured is rejected
        f = "@x.?y.R(x,y)"
        node = ProofNode(seq(f + " => P"), "LeftChoiceAll",
                         (seq_node := ProofNode(seq("?y.R(y,y) => P"),
                                                "Identity"),), t="y")
        ok, why = check_rule(node)
        assert not ok and "free" in why

    @pytest.mark.parametrize("t", ["0", "01", "\u0661", "Q", "x)"])
    def test_term_must_be_a_variable_or_a_canonical_numeral(self, t):
        node = ProofNode(seq("@x.P => P"), "LeftChoiceAll",
                         (identity("P => P"),), t=t)
        assert check_rule(node) == (
            False, f"LeftChoiceAll at @x.P => P: not a term: {t!r}")
        assert check_rule(replace(node, t="1")) == (True, "")

    def test_left_impl_premise_order(self):
        good = ProofNode(seq("Q, !Q -> P => P"), "LeftImpl",
                         (identity("P => P"), identity("Q => Q")))
        ok, why = check_rule(good)
        assert ok, why
        swapped = ProofNode(seq("Q, !Q -> P => P"), "LeftImpl",
                            (identity("Q => Q"), identity("P => P")))
        ok, _ = check_rule(swapped)
        assert not ok

    def test_choice_index_bounds(self):
        node = ProofNode(seq("P & Q => P"), "LeftChoiceConj",
                         (identity("P => P"),), i=3)
        ok, _ = check_rule(node)
        assert not ok

    def test_exchange_position(self):
        prem = ProofNode(seq("P, Q => P"), "Weakening",
                         (identity("P => P"),))
        ok, _ = check_rule(ProofNode(seq("Q, P => P"), "Exchange",
                                     (prem,), pos=0))
        assert ok
        ok, _ = check_rule(ProofNode(seq("Q, P => P"), "Exchange",
                                     (prem,), pos=1))
        assert not ok


# ---------------------------------------------------------------------------
# Reference: one hand-written branch per rule

def _reference_check_rule(node: ProofNode) -> tuple[bool, str]:
    """The rule checker as it was before premises were derived from the
    conclusion, one hand-written branch per rule, kept verbatim."""
    s = node.sequent
    kids = node.children
    rule = node.rule

    def bad(msg: str) -> tuple[bool, str]:
        return False, f"{rule} at {fm.render_sequent(s)}: {msg}"

    if rule not in RULES:
        return bad("unknown rule")

    if rule == "Identity":
        if kids:
            return bad("takes no premises")
        if s.context != (s.succedent,):
            return bad("conclusion must be K => K")
        return True, ""

    if rule == "Domination":
        if kids:
            return bad("takes no premises")
        if s.context != (Dollar(),):
            return bad("conclusion must be $ => K")
        return True, ""

    if rule == "Exchange":
        if len(kids) != 1:
            return bad("takes one premise")
        p = kids[0].sequent
        k = node.pos
        if not 0 <= k < len(p.context) - 1:
            return bad("swap position out of range")
        ctx = list(p.context)
        ctx[k], ctx[k + 1] = ctx[k + 1], ctx[k]
        if s != Sequent(tuple(ctx), p.succedent):
            return bad("conclusion is not the premise with adjacent swap")
        return True, ""

    if rule == "Weakening":
        if len(kids) != 1:
            return bad("takes one premise")
        p = kids[0].sequent
        if not s.context or s.context[:-1] != p.context \
                or s.succedent != p.succedent:
            return bad("conclusion must append one formula to the context")
        return True, ""

    if rule == "Contraction":
        if len(kids) != 1:
            return bad("takes one premise")
        p = kids[0].sequent
        if not s.context or p.context != s.context + (s.context[-1],) \
                or s.succedent != p.succedent:
            return bad("premise must duplicate the conclusion's last formula")
        return True, ""

    if rule == "RightImpl":
        if len(kids) != 1:
            return bad("takes one premise")
        p = kids[0].sequent
        succ = s.succedent
        if not (isinstance(succ, Implies) and isinstance(succ.left, Bang)):
            return bad("succedent must be a resource implication")
        f, k = succ.left.body, succ.right
        if p != Sequent(s.context + (f,), k):
            return bad("premise must move the antecedent into the context")
        return True, ""

    if rule == "LeftImpl":
        if len(kids) != 2:
            return bad("takes two premises")
        p1, p2 = kids[0].sequent, kids[1].sequent
        if not s.context:
            return bad("conclusion needs the implication in its context")
        last = s.context[-1]
        if not (isinstance(last, Implies) and isinstance(last.left, Bang)):
            return bad("last context formula must be a resource implication")
        k2, f = last.left.body, last.right
        if p2.succedent != k2:
            return bad("second premise must prove the implication's antecedent")
        if not p1.context or p1.context[-1] != f:
            return bad("first premise must use the implication's consequent")
        g = p1.context[:-1]
        h = p2.context
        if s != Sequent(g + h + (last,), p1.succedent):
            return bad("conclusion context must be G, H, implication")
        return True, ""

    if rule == "RightChoiceConj":
        succ = s.succedent
        if not isinstance(succ, ChoiceConj):
            return bad("succedent must be a choice conjunction")
        if len(kids) != len(succ.parts):
            return bad("needs one premise per component")
        for j, kid in enumerate(kids):
            if kid.sequent != Sequent(s.context, succ.parts[j]):
                return bad(f"premise {j + 1} must prove component {j + 1}")
        return True, ""

    if rule == "LeftChoiceConj":
        if len(kids) != 1:
            return bad("takes one premise")
        if not s.context or not isinstance(s.context[-1], ChoiceConj):
            return bad("last context formula must be a choice conjunction")
        parts = s.context[-1].parts
        if not 1 <= node.i <= len(parts):
            return bad("component index out of range")
        want = Sequent(s.context[:-1] + (parts[node.i - 1],), s.succedent)
        if kids[0].sequent != want:
            return bad("premise must use the chosen component")
        return True, ""

    if rule == "RightChoiceDisj":
        if len(kids) != 1:
            return bad("takes one premise")
        succ = s.succedent
        if not isinstance(succ, ChoiceDisj):
            return bad("succedent must be a choice disjunction")
        if not 1 <= node.i <= len(succ.parts):
            return bad("component index out of range")
        if kids[0].sequent != Sequent(s.context, succ.parts[node.i - 1]):
            return bad("premise must prove the chosen component")
        return True, ""

    if rule == "LeftChoiceDisj":
        if not s.context or not isinstance(s.context[-1], ChoiceDisj):
            return bad("last context formula must be a choice disjunction")
        parts = s.context[-1].parts
        if len(kids) != len(parts):
            return bad("needs one premise per component")
        for j, kid in enumerate(kids):
            want = Sequent(s.context[:-1] + (parts[j],), s.succedent)
            if kid.sequent != want:
                return bad(f"premise {j + 1} must use component {j + 1}")
        return True, ""

    if rule == "RightChoiceAll":
        if len(kids) != 1:
            return bad("takes one premise")
        succ = s.succedent
        if not isinstance(succ, ChoiceAll):
            return bad("succedent must be choice-quantified")
        if not node.y or node.y in _seq_vars(s):
            return bad(f"eigenvariable {node.y!r} occurs in the conclusion")
        want = Sequent(s.context,
                       fm.substitute(succ.body, [(succ.var, Var(node.y))]))
        if kids[0].sequent != want:
            return bad("premise must prove the body at the eigenvariable")
        return True, ""

    if rule == "LeftChoiceAll":
        if len(kids) != 1:
            return bad("takes one premise")
        if not s.context or not isinstance(s.context[-1], ChoiceAll):
            return bad("last context formula must be choice-quantified")
        q = s.context[-1]
        t = fm.term(node.t)
        if not fm.is_free_for(t, q.var, q.body):
            return bad(f"term {node.t} is not free for {q.var}")
        want = Sequent(s.context[:-1] + (fm.substitute(q.body, [(q.var, t)]),),
                       s.succedent)
        if kids[0].sequent != want:
            return bad("premise must use the instantiated body")
        return True, ""

    if rule == "RightChoiceExists":
        if len(kids) != 1:
            return bad("takes one premise")
        succ = s.succedent
        if not isinstance(succ, ChoiceExists):
            return bad("succedent must be choice-quantified")
        t = fm.term(node.t)
        if not fm.is_free_for(t, succ.var, succ.body):
            return bad(f"term {node.t} is not free for {succ.var}")
        want = Sequent(s.context, fm.substitute(succ.body, [(succ.var, t)]))
        if kids[0].sequent != want:
            return bad("premise must prove the instantiated body")
        return True, ""

    if rule == "LeftChoiceExists":
        if len(kids) != 1:
            return bad("takes one premise")
        if not s.context or not isinstance(s.context[-1], ChoiceExists):
            return bad("last context formula must be choice-quantified")
        q = s.context[-1]
        if not node.y or node.y in _seq_vars(s):
            return bad(f"eigenvariable {node.y!r} occurs in the conclusion")
        want = Sequent(s.context[:-1]
                       + (fm.substitute(q.body, [(q.var, Var(node.y))]),),
                       s.succedent)
        if kids[0].sequent != want:
            return bad("premise must use the body at the eigenvariable")
        return True, ""

    return bad("unreachable")


def _nodes(node):
    yield node
    for kid in node.children:
        yield from _nodes(kid)


CORPUS_NODES = [n for _, proof in curated_theorem_corpus()
                for n in _nodes(proof)]
SEQUENTS = sorted({n.sequent for n in CORPUS_NODES}, key=fm.render_sequent)


def _mutate(rng, node):
    """`node` with one random change: its rule, side data, premises or
    conclusion."""
    kind = rng.randrange(7)
    if kind == 0:
        return replace(node, rule=rng.choice(RULES + ("Cut",)))
    if kind == 1:
        return replace(node, i=rng.randint(-1, 4))
    if kind == 2:
        return replace(node, t=rng.choice(["1", "3", "x", "y", "w", "", "Q"]))
    if kind == 3:
        return replace(node, y=rng.choice(["", "x", "y", "z", "w"]))
    if kind == 4:
        return replace(node, pos=rng.randint(-1, 3))
    if kind == 5:
        return replace(node, sequent=rng.choice(SEQUENTS))
    kids = tuple(ProofNode(rng.choice(SEQUENTS), "Identity")
                 for _ in range(rng.randint(0, 3)))
    if kids and rng.random() < 0.5:
        # replace only premise j of the node's own
        j = rng.randrange(len(kids))
        kids = node.children[:j] + kids[j:j + 1] + node.children[j + 1:]
    return replace(node, children=kids)


def _accepts(check, node) -> bool:
    """Whether `check` accepts `node`; a ValueError (a `t` that is not a
    term) is a rejection."""
    try:
        return check(node)[0]
    except ValueError:
        return False


class TestAgainstReference:
    def test_every_corpus_node(self):
        for node in CORPUS_NODES:
            assert _accepts(check_rule, node)
            assert _accepts(_reference_check_rule, node)

    def test_seeded_mutations(self):
        rng = random.Random(13)
        accepted = rejected = 0
        for _ in range(5000):
            node = rng.choice(CORPUS_NODES)
            for _ in range(rng.randint(1, 3)):
                node = _mutate(rng, node)
            ok = _accepts(check_rule, node)
            assert ok is _accepts(_reference_check_rule, node), node
            accepted += ok
            rejected += not ok
        # neither verdict is rare, so the agreement is not vacuous
        assert accepted > 1000 and rejected > 1000, (accepted, rejected)

    def test_a_wrong_premise_names_the_expected_one(self):
        node = ProofNode(seq("P & Q => P"), "LeftChoiceConj",
                         (identity("Q => Q"),), i=1)
        assert check_rule(node) == (
            False, "LeftChoiceConj at P & Q => P: premise 1 must be P => P")


class TestCorpus:
    def test_every_derivation_checks(self):
        for name, proof in curated_theorem_corpus():
            ok, why = check_proof(proof)
            assert ok, (name, why)

    def test_rule_coverage_is_complete(self):
        rules = frozenset()
        for _, proof in curated_theorem_corpus():
            rules |= proof.rules_used()
        assert rules == frozenset(intproof.RULES)
        assert len(curated_theorem_corpus()) >= 10

    def test_json_round_trip(self):
        for name, proof in curated_theorem_corpus():
            again = proof_from_json(json.dumps(proof_to_json(proof)))
            assert again == proof, name


BARE_WITNESS = ProofNode(seq("=> ?x.(!R(x) -> R(x))"), "RightChoiceExists",
                         (ProofNode(seq("=> !R(3) -> R(3)"), "RightImpl",
                                    (identity("R(3) => R(3)"),)),), t="3")


class TestCompile:
    def test_identity_compiles_to_the_root_copy_cat(self):
        expr = compile_proof(identity("P => P"))
        assert str(expr) == "l6a"

    def test_compilation_is_deterministic(self):
        for name, proof in curated_theorem_corpus():
            assert str(compile_proof(proof)) == str(compile_proof(proof)), name

    def test_invalid_proof_rejected(self):
        with pytest.raises(ValueError):
            compile_proof(identity("P => Q"))

    def test_impl_intro_end_to_end(self):
        proof = ProofNode(seq("=> !P -> P"), "RightImpl",
                          (identity("P => P"),))
        expr = compile_proof(proof)
        f = fm.sequent_to_formula(proof.sequent)
        itp = random_interpretation(21, (("P", 0),), 2)
        res = wins_against_all(expr.strategy(), GameRef(f, itp), depth=2)
        assert res.won_all

    def test_conj_left_end_to_end(self):
        proof = ProofNode(seq("P & Q => P"), "LeftChoiceConj",
                          (identity("P => P"),), i=1)
        expr = compile_proof(proof)
        f = fm.sequent_to_formula(proof.sequent)
        for k in range(6):
            itp = random_interpretation(30 + k, (("P", 0), ("Q", 0)), 3)
            g = GameRef(f, itp)
            for j in range(40):
                t = simulate(expr.strategy(), RandomEnv(j), g)
                assert t.verdict is T, (k, j, t.run)

    def test_compiled_strategy_expression_mentions_the_registry(self):
        _, proof = [c for c in curated_theorem_corpus()
                    if c[0] == "impl-elim"][0]
        text = str(compile_proof(proof))
        assert "l4" in text and "l5" in text and "bang(" in text

    def test_empty_context_witness_plays_the_bare_existential(self):
        # `=> ?x.K` is the formula `?x.K` alone, not an implication, so the
        # witness strategy must be applied to the premise's strategy; the
        # composition `trans(l6a,oct5b[t=3])` opened with an illegal move
        proof = BARE_WITNESS
        expr = compile_proof(proof)
        assert str(expr) == "mp(l6a,oct5b[t=3])"
        f = fm.sequent_to_formula(proof.sequent)
        for k in range(3):
            game = verify.random_game(f, seed=40 + k)
            for j in range(10):
                t = verify.play_random(expr, game, seed=j)
                assert t.verdict is T, (k, j, t.halted_reason, t.run)
        for seed in (5, 9):
            game = verify.random_game(f, seed=seed, depth=2)
            res = wins_against_all(expr.strategy(), game, depth=2)
            assert res.won_all, res.counterexample.run
        assert res.leaves == 13


def _weakened_to_the_front(text):
    """`X, K => K` from `K => K`: weaken by X, then swap X to the front."""
    k = text.split(" => ")[1]
    return ProofNode(seq(f"X, {k} => {k}"), "Exchange",
                     (ProofNode(seq(f"{k}, X => {k}"), "Weakening",
                                (identity(f"{k} => {k}"),)),), pos=0)


# Derivations that reach the compile cases the corpus leaves out: a left
# choice rule under a context formula, LeftImpl with an empty second
# context and RightChoiceAll with an empty context.  They are kept here,
# out of `curated_theorem_corpus()`, which the benchmark reads.
COMPILE_CASES = [
    ProofNode(seq("X, P & Q => P"), "LeftChoiceConj",
              (_weakened_to_the_front("P => P"),), i=1),
    ProofNode(seq("X, P + P => P"), "LeftChoiceDisj",
              (_weakened_to_the_front("P => P"),
               _weakened_to_the_front("P => P"))),
    ProofNode(seq("X, @x.R(x) => R(3)"), "LeftChoiceAll",
              (_weakened_to_the_front("R(3) => R(3)"),), t="3"),
    ProofNode(seq("X, ?x.R(x) => ?z.R(z)"), "LeftChoiceExists",
              (ProofNode(seq("X, R(y) => ?z.R(z)"), "RightChoiceExists",
                         (_weakened_to_the_front("R(y) => R(y)"),), t="y"),),
              y="y"),
    ProofNode(seq("!(!Q -> Q) -> P => P"), "LeftImpl",
              (identity("P => P"),
               ProofNode(seq("=> !Q -> Q"), "RightImpl",
                         (identity("Q => Q"),)))),
    ProofNode(seq("=> @x.(!R(x) -> R(x))"), "RightChoiceAll",
              (ProofNode(seq("=> !R(y) -> R(y)"), "RightImpl",
                         (identity("R(y) => R(y)"),)),), y="y"),
]


class TestCompileCases:
    @pytest.mark.parametrize("proof", COMPILE_CASES,
                             ids=lambda p: fm.render_sequent(p.sequent))
    def test_compiled_strategy_wins(self, proof):
        # criterion 5's plays and search, at 20 plays per interpretation
        assert check_proof(proof) == (True, "")
        expr = compile_proof(proof)
        f = fm.sequent_to_formula(proof.sequent)
        val = Valuation({"y": 2})
        report = verify.Report("compile-cases")
        label = fm.render_sequent(proof.sequent)
        plays = [(verify.random_game(f, seed=3000 + 13 * k, valuation=val),
                  range(97 * k, 97 * k + 20)) for k in range(10)]
        verify.batch_random_plays(report, label, expr, plays, max_moves=4)
        verify.exhaustive_check(report, label, expr, f, depth=3,
                                valuation=val)
        assert report.passed, report.failures
        assert report.counters["plays"] == 200

    def test_every_line_of_compile_runs(self):
        code = intproof._compile.__code__
        lines = {line for _, _, line in code.co_lines() if line is not None}
        ran = set()
        before = sys.gettrace()         # a coverage tracer keeps its lines

        def on_call(frame, event, arg):
            outer = before(frame, event, arg) if before else None
            if frame.f_code is not code:
                return outer

            def local(frame, event, arg):
                nonlocal outer
                if event == "line":
                    ran.add(frame.f_lineno)
                if outer is not None:
                    outer = outer(frame, event, arg)
                return local
            return local

        sys.settrace(on_call)
        try:
            for _, proof in curated_theorem_corpus():
                compile_proof(proof)
            for proof in COMPILE_CASES + [BARE_WITNESS]:
                compile_proof(proof)
            with pytest.raises(AssertionError, match="unhandled rule"):
                intproof._compile(ProofNode(seq("P => P"), "Cut"))
        finally:
            sys.settrace(before)
        assert sorted(lines - ran - {code.co_firstlineno}) == []
