"""Acceptance gate: one test per criterion, each at its full parameters.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and timings; `clgames verify all` prints the same reports.
"""

from clgames import verify


def _finish(criterion: str, report, time_budget: float):
    line = f"CRITERION {criterion}: {'PASS' if report.passed else 'FAIL'}" \
           f" ({report.seconds:.1f}s"
    if time_budget:
        line += f" / budget {time_budget:.0f}s"
    line += ") " + " ".join(f"{k}={v}" for k, v in sorted(report.counters.items()))
    print(line)
    assert report.passed, report.failures[:5]
    if time_budget:
        assert report.seconds < time_budget, \
            f"{criterion} exceeded its runtime budget"


def test_criterion_1_cl2_reproduction():
    # worked proofs reproduced exactly; refutation by exhaustive search
    report = verify.verify_cl2_examples()
    _finish("1 (cl2 worked examples)", report, 5.0)
    assert report.counters["composition-steps"] == 4


def test_criterion_2_schema_coverage():
    # all ten schemata over the full parameter grid, proved, extracted,
    # and played: exhaustive depth-3 adversaries plus >=200 seeded random
    # plays under >=5 random interpretations each, 100% wins
    report = verify.verify_schemata(interps=5, plays_per=50,
                                    exhaustive_depth=3)
    _finish("2 (schema coverage)", report, 600.0)
    assert report.counters["instances"] == 81
    assert report.counters["plays"] >= 81 * 200


def test_criterion_3_named_strategies():
    # every named strategy: >=500 seeded random plays on its schema games
    # and every exhaustive depth-<=3 adversary branch, 100% wins; every
    # tree-of-trees play checks the machine's invariants live at each grant
    # (criterion 4's second half)
    report = verify.verify_named(plays_total=500, exhaustive_depth=3)
    _finish("3 (named strategies)", report, 600.0)
    assert report.counters["plays"] >= 500 * 27     # 27 distinct strategy ids
    assert report.counters["strategies"] == 39
    assert report.counters.get("l5-invariant-points", 0) > 0


def test_criterion_4_tree_of_trees_invariants():
    # branch-pair ordering verified exhaustively for branches of length
    # <= 4 (via embeddable pairs) and over every colored tree of depth 3;
    # the per-iteration machine invariants (4b) are asserted live during
    # every tree-of-trees play of criterion 3, whose plays include every
    # play a separate 100-play run would make
    report = verify.verify_lemma10(max_len=4)
    _finish("4a (colored-tree ordering)", report, 120.0)


def test_criterion_5_soundness_end_to_end():
    # every corpus derivation compiles; each compiled strategy wins >=1000
    # seeded plays across >=10 interpretations, every exhaustive depth-3
    # branch, is interpretation-blind, and ignores the universal-problem
    # base choice
    report = verify.verify_corpus(interps=10, plays_per=100,
                                  exhaustive_depth=3)
    _finish("5 (compiled derivations)", report, 1200.0)
    assert report.counters["rules-covered"] == 15
    assert report.counters["derivations"] >= 10
    assert report.counters["plays"] >= 1000 * 10
    assert report.counters["blindness-probes"] == report.counters["compiled"]


def test_criterion_6_oracle_equivalence():
    # the stepping evaluator agrees with the whole-run oracle on every
    # formula shape of size <= 4 over random finite games
    report = verify.verify_oracle(max_size=4, runs_per=3, min_cases=1000)
    _finish("6 (evaluator vs oracle)", report, 120.0)
    assert report.counters["cases"] >= 1000


def test_criterion_7_micro_examples():
    report = verify.verify_micro()
    _finish("7 (worked micro-examples)", report, 30.0)
