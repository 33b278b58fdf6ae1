"""Command-line surface: parse, check, prove, compile, play, verify."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cl2, formula as fm, intproof, verify as verify_mod
from .epm import (MAX_LEAVES, BudgetExceeded, RandomEnv, ScriptEnv,
                  SilentEnv, Strategy, simulate, wins_against_all)
from .games import (B, GameRef, Labmove, Valuation, advance,
                    legal_moves, load_interpretation)
from .strategies import build_strategy


def _parse_valuation(text: str | None) -> Valuation:
    """'x=3,y=5,default=1': each key a variable or `default`, each value a
    numeral 1, 2, ...; anything else raises ValueError."""
    if not text:
        return Valuation()
    assign = {}
    default = 1
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        k, _, v = (part.strip() for part in chunk.partition("="))
        n = fm._numeral(v)
        if n is None:
            raise ValueError(f"valuation value {v!r} is not a numeral 1, 2, ...")
        if k == "default":
            default = n
        elif fm._VARIABLE.fullmatch(k):
            assign[k] = n
        else:
            raise ValueError(f"valuation key {k!r} is not a variable")
    return Valuation(assign, default)


def _seed(args) -> int:
    """The play's one seed: --seed, else CL_SEED, else 1.  It seeds both the
    random interpretation and the random environment."""
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("CL_SEED", "1"))


def _load_game(args) -> GameRef:
    f = fm.parse_formula(args.game)
    val = _parse_valuation(args.val)
    if args.interp:
        with open(args.interp, encoding="utf-8") as fh:
            return GameRef(f, load_interpretation(fh.read()), val)
    return verify_mod.random_game(f, _seed(args), valuation=val)


class HumanEnv:
    """Interactive environment: prompts with legal-move hints per grant; an
    empty line, `pass` or the end of input declines it, ending the play."""

    def on_permission(self, state, run):
        hints = legal_moves(state, B)
        print(f"position: {list(run)}")
        print(f"legal moves include: {hints}"
              "  (or 'pass' to end the play, 'quit' to exit)")
        while True:
            try:
                line = input("your move> ").strip()
            except EOFError:
                return None
            if line in ("", "pass"):
                return None
            if line == "quit":
                raise SystemExit(0)
            if advance(state, Labmove(B, line)) is not None:
                return line
            print(f"illegal move {line!r}: not a legal continuation here")


def cmd_check_formula(args) -> int:
    f = fm.parse_formula(args.formula)
    print(f"ok: {fm.render(f)}")
    print(f"free variables: {sorted(fm.free_vars(f))}")
    print(f"sublanguage member: {fm.is_int_formula(f)}")
    return 0


def cmd_check_proof(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    if args.kind == "int":
        proof = intproof.proof_from_json(text)
        ok, why = intproof.check_proof(proof)
    else:
        proof = cl2.proof_from_text(text)
        ok, why = cl2.check_proof(proof)
    if ok:
        print("valid")
        return 0
    print(f"invalid: {why}")
    return 1


def cmd_prove_cl2(args) -> int:
    f = fm.parse_formula(args.formula)
    proof = cl2.prove(f)
    if proof is None:
        print("not provable")
        return 1
    sys.stdout.write(cl2.proof_to_text(proof))
    return 0


def cmd_compile(args) -> int:
    with open(args.proof, encoding="utf-8") as fh:
        proof = intproof.proof_from_json(fh.read())
    ok, why = intproof.check_proof(proof)
    if not ok:
        print(f"invalid proof: {why}")
        return 1
    expr = intproof.compile_proof(proof)
    print(f"sequent: {fm.render_sequent(proof.sequent)}")
    print(f"formula: {fm.render(fm.sequent_to_formula(proof.sequent))}")
    print(f"strategy: {expr}")
    return 0


def _make_env(args):
    spec = args.env
    if spec == "silent":
        return SilentEnv()
    if spec == "random":
        return RandomEnv(_seed(args), max_moves=args.env_moves)
    if spec == "human":
        return HumanEnv()
    if spec.startswith("script:"):
        with open(spec[7:], encoding="utf-8") as fh:
            return ScriptEnv.from_text(fh.read())
    raise ValueError(f"unknown environment {spec!r}")


def _strategy_for(args) -> Strategy:
    if getattr(args, "proof", None):
        with open(args.proof, encoding="utf-8") as fh:
            proof = intproof.proof_from_json(fh.read())
        ok, why = intproof.check_proof(proof)
        if not ok:
            raise SystemExit(f"invalid proof: {why}")
        return intproof.compile_proof(proof).strategy()
    return build_strategy(args.strategy)


def cmd_play(args) -> int:
    game = _load_game(args)
    strategy = _strategy_for(args)
    if args.env.startswith("exhaustive:"):
        depth = args.env.removeprefix("exhaustive:")
        if not (depth.isascii() and depth.isdigit()):
            raise ValueError(f"bad search depth in {args.env!r}")
        result = wins_against_all(strategy, game, depth=int(depth))
        print(f"explored {result.leaves} environment behaviors")
        if result.won_all:
            print("verdict: T in every branch")
            return 0
        print("counterexample run:")
        sys.stdout.write(result.counterexample.to_text(args.game, game.valuation))
        return 1
    env = _make_env(args)
    t = simulate(strategy, env, game, budget=args.budget)
    text = t.to_text(args.game, game.valuation)
    if args.transcript:
        with open(args.transcript, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    print(f"verdict: {t.verdict.value} ({t.halted_reason.value})")
    return 0


def cmd_verify(args) -> int:
    names = sorted(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    overrides = {}
    if args.fast:
        overrides = {
            "cl2-schemata": {"interps": 2, "plays_per": 5},
            "named": {"plays_total": 40},
            "corpus": {"interps": 2, "plays_per": 5},
            "oracle": {"runs_per": 1},
            "lemma10": {"max_len": 3},
        }
    all_ok = True
    for name in names:
        report = verify_mod.run_suite(name, **overrides.get(name, {}))
        print(report.render())
        all_ok = all_ok and report.passed
    return 0 if all_ok else 1


def cmd_corpus(args) -> int:
    for name, proof in intproof.curated_theorem_corpus():
        ok, why = intproof.check_proof(proof)
        status = "ok" if ok else f"INVALID: {why}"
        print(f"{name}: {fm.render_sequent(proof.sequent)} [{status}]")
        if args.emit_dir:
            os.makedirs(args.emit_dir, exist_ok=True)
            path = os.path.join(args.emit_dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(intproof.proof_to_json(proof), fh, indent=2)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="clgames",
        description="game-semantics engine: evaluate, prove, compile, play")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-formula", help="parse and classify a formula")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_check_formula)

    p = sub.add_parser("check-proof", help="validate a proof file")
    p.add_argument("kind", choices=["int", "cl2"])
    p.add_argument("file")
    p.set_defaults(fn=cmd_check_proof)

    p = sub.add_parser("prove-cl2", help="decide a propositional formula")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_prove_cl2)

    p = sub.add_parser("compile", help="compile a sequent proof to a strategy")
    p.add_argument("--proof", required=True)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("play", help="play a strategy against an environment")
    p.add_argument("--game", required=True)
    p.add_argument("--strategy", default="ccs")
    p.add_argument("--proof", help="compile this sequent proof instead")
    p.add_argument("--interp", help="interpretation file (JSON)")
    p.add_argument("--val", help="valuation, e.g. 'x=3,y=5,default=1'")
    p.add_argument("--env", default="random",
                   help="silent | random | human | script:FILE |"
                        " exhaustive:DEPTH (exit 1 on a counterexample, 2"
                        f" when the search passes {MAX_LEAVES} leaves); any play"
                        " exits 2 when building a cl2 strategy's proof"
                        " passes its node budget")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--env-moves", type=int, default=6)
    p.add_argument("--budget", type=int, default=4000)
    p.add_argument("--transcript", help="write the transcript to this file")
    p.set_defaults(fn=cmd_play)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(verify_mod.SUITES) + ["all"])
    p.add_argument("--fast", action="store_true",
                   help="reduced counts for a quick smoke check")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("corpus", help="list (and emit) the derivation corpus")
    p.add_argument("--emit-dir")
    p.set_defaults(fn=cmd_corpus)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except fm.ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except KeyError as e:                   # str() would print its repr
        print(f"error: {e.args[0]}", file=sys.stderr)
        return 2
    except (BudgetExceeded, cl2.SearchBudgetExceeded, FileNotFoundError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
