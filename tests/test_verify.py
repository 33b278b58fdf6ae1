"""The acceptance suites' loss paths: a strategy that loses makes the play
batch and the exhaustive search fail their report, with a message that
replays the loss, and a batch's grant hook sees every grant of every play.
A proof or exhaustive search that runs out of budget fails the report too,
and a failed report renders as `[FAIL]` with its first ten failures.
Criterion 6 fails on the first shape where an oracle that disagrees with
the evaluator is caught, and stops there; the corpus suite stops after a
derivation that does not check, and the named suite after a strategy whose
l5 invariants fail.  Criterion 4 reports a branch-order violation at pair
and at tree level, and a generated tree that is not a colored tree.

`l6c` on `P -> P` always loses: its opening move `1.:` replicates an
antecedent that is not a `!` game, which is illegal there.
"""

from clgames import (cl2, epm, formula as fm, intproof, oracle, strategies,
                     verify)
from clgames.games import B, Valuation

LOSER, LOSING_GAME = "l6c", fm.parse_formula("P -> P")


def test_a_lost_play_fails_the_batch_after_one_play():
    games = [verify.random_game(LOSING_GAME, seed=k) for k in (1, 2)]
    report = verify.Report("loss")
    # the first pair has no seeds, so the loss is in pair 1
    verify.batch_random_plays(report, "l6c on P -> P", LOSER,
                              [(games[0], []), (games[1], [7, 8])])
    assert not report.passed
    assert report.counters == {"plays": 1}
    t = verify.play_random(LOSER, games[1], seed=7)
    assert t.verdict is B
    assert report.failures == [
        f"l6c on P -> P: lost (interp 1, seed 7): run {list(t.run)}"]


def test_a_losing_strategy_fails_the_exhaustive_search():
    report = verify.Report("loss")
    verify.exhaustive_check(report, LOSER, LOSER, LOSING_GAME, depth=2)
    assert not report.passed
    assert len(report.failures) == 1
    assert report.failures[0].startswith(
        "l6c: exhaustive adversary win failed (seed 5): run [")


def test_an_exhaustive_search_out_of_leaves_fails_the_report(monkeypatch):
    monkeypatch.setattr(epm, "MAX_LEAVES", 3)
    report = verify.Report("budget")
    verify.exhaustive_check(report, "ccs", "ccs", LOSING_GAME, depth=2)
    assert report.failures == [
        "ccs: exhaustive search gave no verdict (seed 5): exhaustive search"
        " exceeded 3 leaves"]


def test_a_proof_search_out_of_nodes_fails_the_instance(monkeypatch):
    monkeypatch.setattr(cl2.prove, "__defaults__", (3,))
    strategies._prototype.cache_clear()        # so every instance is proved
    report = verify.verify_schemata(interps=1, plays_per=1,
                                    exhaustive_depth=1)
    first_label = verify.schema_instances()[0][0]
    assert not report.passed
    assert report.failures[0] == \
        f"{first_label}: proof search gave up after 3 nodes"
    assert all(f.endswith(": proof search gave up after 3 nodes")
               for f in report.failures)


def test_the_grant_hook_fires_once_per_grant_of_each_play():
    val = Valuation({"y": 2})
    f = fm.parse_formula("!(P & Q) -> !!(P & Q)")
    plays = [(verify.random_game(f, seed=2000 + 11 * k, valuation=val),
              range(41 * k, 41 * k + 4)) for k in range(2)]
    report = verify.Report("l5")
    built = []

    def hook(strat, game):
        built.append((strat, game))
        return verify._l5_checker(report, "l5", strat, game)
    verify.batch_random_plays(report, "l5", "l5", plays, grant_hook=hook)
    assert report.passed, report.failures
    assert report.counters["plays"] == 8
    # one hook per play, each with that play's fresh strategy and game
    assert len(built) == 8 and len({id(s) for s, _ in built}) == 8
    assert [id(g) for _, g in built] == \
        [id(g) for g, seeds in plays for _ in seeds]
    grants = sum(verify.play_random("l5", game, seed=s).grants
                 for game, seeds in plays for s in seeds)
    assert grants > 8
    assert report.counters["l5-invariant-points"] == grants


def test_a_refused_report_renders_its_first_ten_failures():
    report = verify.Report("refusal")
    report.count("plays", 12)
    report.require(True, "never recorded")
    for k in range(1, 13):
        report.require(False, f"failure {k}")
    assert not report.passed and len(report.failures) == 12
    assert report.render().splitlines() == (
        ["[FAIL] refusal (0.0s)", "    plays: 12"]
        + [f"    !! failure {k}" for k in range(1, 11)]
        + ["    !! ... and 2 more"])


def _patch_oracle(monkeypatch, flip_legal: bool) -> None:
    """Make the oracle flip its legality, or else its winner on legal runs."""
    real = oracle.oracle_run

    def wrong(*args):
        legal, won = real(*args)
        if flip_legal:
            return not legal, won
        return legal, won.opponent if legal else won
    monkeypatch.setattr(oracle, "oracle_run", wrong)


def test_an_oracle_winner_mismatch_fails_criterion_6(monkeypatch):
    _patch_oracle(monkeypatch, flip_legal=False)
    report = verify.verify_oracle(max_size=2, runs_per=3, min_cases=1)
    # the first run that stays legal is the 28th shape's, !bot; the suite
    # stops after that shape, two short of the 30
    assert not report.passed
    assert report.counters == {"shapes": 30, "cases": 28 * 3}
    assert report.failures == [
        "winner mismatch on !bot run [B:, B0:, B00:, B01:]:"
        " evaluator B, oracle T"]


def test_an_oracle_legality_mismatch_fails_criterion_6(monkeypatch):
    _patch_oracle(monkeypatch, flip_legal=True)
    report = verify.verify_oracle(max_size=2, runs_per=3, min_cases=1)
    # every first move is misclassified, so the first shape fails
    assert not report.passed
    assert report.counters == {"shapes": 30, "cases": 3}
    assert report.failures == [
        "classification mismatch on P run [B2.2]",
        "classification mismatch on P run [Tjunk]",
        "classification mismatch on P run [T2:]"]


def test_a_derivation_that_does_not_check_fails_the_corpus(monkeypatch):
    identity = dict(intproof.curated_theorem_corpus())["identity"]
    bad = intproof.ProofNode(fm.parse_sequent("P => Q"), "Identity")
    monkeypatch.setattr(intproof, "curated_theorem_corpus",
                        lambda: [("bad", bad), ("identity", identity)])
    report = verify.verify_corpus(interps=2, plays_per=3, exhaustive_depth=1)
    # the valid derivation still plays its random batch, and the suite
    # stops there
    assert not report.passed
    assert report.counters == {"rules-covered": 1, "derivations": 2,
                               "plays": 6}
    assert report.failures == [
        "rule coverage 1 != 15",
        "bad: Identity at P => Q: conclusion must be K => K"]


def test_an_l5_invariant_violation_fails_the_named_suite(monkeypatch):
    monkeypatch.setattr(verify, "check_l5_invariants",
                        lambda run, tree, game: ["planted"])
    report = verify.verify_named(plays_total=5, exhaustive_depth=1)
    # every grant of the first l5 game (the 26th) reports, and the suite
    # stops after that strategy
    assert not report.passed
    assert report.counters["strategies"] == 26
    assert report.counters["plays"] == 26 * 5
    assert report.failures == ["l5: invariant violated: planted"] * 13
    assert report.counters["l5-invariant-points"] == 13


def test_a_branch_order_violation_fails_criterion_4(monkeypatch):
    real = verify._is_prefix_tuple
    # a planted fault: the root is not a prefix of the branch 0 (blue)
    monkeypatch.setattr(verify, "_is_prefix_tuple", lambda wv, uv: real(
        wv, uv) and not (wv == () and uv == (("0", "b"),)))
    report = verify.verify_lemma10(max_len=2)
    # the pair comes up once among the pairs and once in each of the 361
    # trees that have that branch
    assert not report.passed
    assert report.counters == {"pairs": 209, "trees": 723}
    assert report.failures == (
        ["branch-order violation: () vs (('0', 'b'),)"]
        + ["branch-order violation in tree: () vs (('0', 'b'),)"] * 361)


def test_a_generated_non_tree_fails_criterion_4(monkeypatch):
    real = verify.is_colored_tree
    # a planted fault: the single-leaf tree is refused
    monkeypatch.setattr(verify, "is_colored_tree",
                        lambda tree: real(tree) and len(tree) > 1)
    report = verify.verify_lemma10(max_len=2)
    assert not report.passed
    assert report.counters == {"pairs": 209, "trees": 723}
    assert report.failures == ["generated a non-tree: [()]"]
