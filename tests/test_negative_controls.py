"""Negative controls: the gate must be seen to say no.

Each case hands the engine something that must be refused (a losing
strategy, a strategy on a game it was not built for, an invalid proof
whose root is valid) and checks the reason as well as the verdict.
"""

import contextlib
import io
import json

import pytest

from clgames import formula as fm, intproof, verify
from clgames.cli import main
from clgames.epm import (HaltReason, Machine, RandomEnv, Strategy, simulate,
                         wins_against_all)
from clgames.games import B, Valuation
from clgames.oracle import oracle_run
from clgames.strategies import build_strategy


def test_a_machine_on_a_game_it_was_not_built_for_faults():
    # l5 wins !F -> !!F; on P the environment's first move 2.1 is no
    # recurrence move, so the machine cannot read it
    game = verify.random_game(fm.parse_formula("P"), 3)
    t = simulate(build_strategy("l5"), RandomEnv(3), game)
    assert [str(lm) for lm in t.run] == ["B2.1"]
    assert (t.verdict, t.halted_reason) == (B, HaltReason.MACHINE_FAULT)
    assert t.diagnostic.startswith("machine raised TypeError: ")


def test_cli_reports_the_fault():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main("play --game P --strategy l5 --env random --seed 3"
                    .split())
    assert code == 0
    assert out.getvalue().endswith("verdict: B (machine_fault)\n")


@pytest.mark.parametrize("text, seed, run", [
    ("P", 1, ()),
    ("P & Q", 1, ("B1",)),
    ("!P -> P", 3, ("B2.2.2",)),
])
def test_the_do_nothing_machine_loses(text, seed, run):
    f = fm.parse_formula(text)
    game = verify.random_game(f, seed)
    result = wins_against_all(Strategy(Machine()), game, depth=2)
    assert not result.won_all
    cex = result.counterexample
    assert tuple(str(lm) for lm in cex.run) == run
    assert (cex.verdict, cex.halted_reason) == (B, HaltReason.QUIESCENT)
    assert oracle_run(f, game.interp, game.valuation, cex.run) == (True, B)


@pytest.mark.parametrize("sid, answer", [("ccs", "T1.1.1"),
                                         ("l6a", "T1..1.1")])
def test_a_losing_strategy_fails_the_suite_helpers(sid, answer):
    # P -> P /\ P is refuted by criterion 1; neither copy-cat wins it
    f = fm.parse_formula("P -> P /\\ P")
    report = verify.Report("negative")
    verify.exhaustive_check(report, sid, sid, f)
    assert not report.passed
    assert report.failures[0].startswith(
        f"{sid}: exhaustive adversary win failed (seed 5): run ")
    val = Valuation({"y": 2})
    plays = [(verify.random_game(f, seed=3000 + 13 * k, valuation=val),
              range(97 * k, 97 * k + 100)) for k in range(3)]
    report = verify.Report("negative")
    verify.batch_random_plays(report, sid, sid, plays, max_moves=4)
    assert not report.passed
    assert report.failures == [
        f"{sid}: lost (interp 2, seed 195): run [B2.1.1, {answer}]"]
    assert report.counters["plays"] == 202


def test_cli_prints_the_counterexample():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["play", "--game", "P -> P /\\ P", "--strategy", "ccs",
                     "--env", "exhaustive:2", "--seed", "5"])
    assert code == 1
    assert "counterexample run:\n#game P -> P /\\ P\n" in out.getvalue()
    assert "#verdict B reason=machine_illegal" in out.getvalue()


# Valid at the root, invalid below it: at depth 2 and at depth 3.
BAD_PROOFS = [
    ("!P -> Q",
     {"sequent": "=> !P -> Q", "rule": "RightImpl",
      "premises": [{"sequent": "P => Q", "rule": "Identity"}]},
     "Identity at P => Q: conclusion must be K => K"),
    ("!P -> (!Q -> P)",
     {"sequent": "=> !P -> (!Q -> P)", "rule": "RightImpl",
      "premises": [{"sequent": "P => !Q -> P", "rule": "RightImpl",
                    "premises": [{"sequent": "P, Q => P",
                                  "rule": "Identity"}]}]},
     "Identity at P, Q => P: conclusion must be K => K"),
]


@pytest.mark.parametrize("game, proof, why", BAD_PROOFS,
                         ids=["depth 2", "depth 3"])
def test_an_invalid_premise_is_rejected(game, proof, why, tmp_path):
    node = intproof.proof_from_json(json.dumps(proof))
    assert intproof.check_rule(node) == (True, "")
    assert intproof.check_proof(node) == (False, why)
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(proof))
    for args, shown in ((["check-proof", "int", str(path)], "invalid: "),
                        (["compile", "--proof", str(path)], "invalid proof: ")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(args) == 1
        assert out.getvalue() == f"{shown}{why}\n"
    with pytest.raises(SystemExit) as exit_:
        main(["play", "--game", game, "--proof", str(path),
              "--env", "exhaustive:2"])
    assert exit_.value.code == f"invalid proof: {why}"    # exit status 1
