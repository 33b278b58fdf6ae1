import json

import pytest

from clgames import formula as fm, intproof, verify
from clgames.epm import RandomEnv, simulate, wins_against_all
from clgames.games import GameRef, T, random_interpretation
from clgames.intproof import (ProofNode, check_proof, check_rule,
                              compile_proof, curated_theorem_corpus,
                              proof_from_json, proof_to_json)


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
        proof = ProofNode(seq("=> ?x.(!R(x) -> R(x))"), "RightChoiceExists",
                          (ProofNode(seq("=> !R(3) -> R(3)"), "RightImpl",
                                     (identity("R(3) => R(3)"),)),), t="3")
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
