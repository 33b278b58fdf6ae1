"""Golden transcripts: pinned digests of seeded engine behaviour.

Each section serializes a deterministic batch of engine outputs to JSON and
hashes it with SHA-256.  The pinned digests were taken from the engine
before the legality/winner recursions and the two play loops were merged,
so a refactor that changes any seeded transcript, search outcome or
adjudication shows up here.  The `proofs` digest, taken before proof
search walked each formula once, pins `cl2.prove`'s output (and so its
search order) directly.  The `moves` and `oracle` digests, taken before
listing stopped building next states and the oracle got its own move
grammar, pin `legal_moves` and `oracle.oracle_run` on the `judge` runs.
When a behaviour change is intended, run
`PYTHONPATH=src python tests/test_golden.py` to print the new digests, and
say in CHANGES.md why they moved.
"""

import hashlib
import json
import random

import pytest

from clgames import cl2, formula as fm, intproof, oracle, verify
from clgames.epm import (Machine, RandomEnv, ScriptEnv, SilentEnv, Strategy,
                         simulate, wins_against_all)
from clgames.formula import (Atom, Bot, ChoiceConj, ChoiceDisj, Elem, Implies,
                             Neg, ParConj, ParDisj, Top)
from clgames.games import (B, FiniteGame, GameRef, Interpretation, Labmove, T,
                           Valuation, candidate_moves, game_state,
                           legal_moves, position_legal,
                           random_interpretation, winner)
from clgames.strategies import Expr, build_strategy

VAL = Valuation({"y": 2})

GOLDEN = {
    "corpus": "54a9b2a58a282ba6ee7c2a6c60c1d97a5e32a94780b843c14b9b95e4ed6a9149",
    "edges": "18ff7768ca69ae211166ea714f95cecfc4a0497633054067beec403b0191061a",
    "judge": "cfb4fbf50eedf1256c60d4e072c60ed898badc742cb309976398d182eaf03cc7",
    "moves": "d752fd3f9cf4caea19e3ab1bf41f4eb7e22a48f977e8b3e628aff3022daf92d8",
    "named": "422d02a201c1a89245608d488e671bea0b42f5c2033eeb09c4b581ffe6680314",
    "oracle": "12cd74681d1888d2d42d6b1d54aee7542fa8dbb48f9b871bde694cf9f278d819",
    "proofs": "bfe91d7c28905b3546ab625b76a155851a3bf7b2d89dc592e620ebd90ba2b5c7",
    "schemata": "64377f239b3b853958ace1d6d7fbe85d644577ef007a42fd93b101b03bfe2bf8",
    "search": "acf40c4be1f3fa785fab140972f4a66c52edf51144a9a7fa9abdab023fcd2e33",
}


def _events(t) -> list:
    """The play's events as the engine once logged them, derived from the
    run and the grant count: a grant before each environment move, and one
    more at the end when there are more grants than environment moves."""
    out = []
    for lm in t.run:
        if lm.player is B:
            out.append(["grant"])
        out.append(["move", lm.player.value, lm.move])
    if t.grants > sum(lm.player is B for lm in t.run):
        out.append(["grant"])
    return out


def _transcript(t) -> list:
    return [[[lm.player.value, lm.move] for lm in t.run], t.verdict.value,
            t.steps, t.grants, t.halted_reason.value, _events(t),
            t.diagnostic]


def _plays(spec, game, seeds, max_moves=5) -> list:
    return [_transcript(verify.play_random(spec, game, seed=s,
                                           max_moves=max_moves))
            for s in seeds]


def _named() -> list:
    out = []
    for k, (sid, text, _) in enumerate(verify.named_strategy_games()):
        game = verify.random_game(fm.parse_formula(text), seed=2000 + k,
                                  valuation=VAL)
        out.append([sid, text, _plays(sid, game, range(k, k + 6))])
    return out


def _schema_slice():
    return verify.schema_instances()[::3]


def _schemata() -> list:
    out = []
    for k, (label, inst) in enumerate(_schema_slice()):
        game = verify.random_game(inst, seed=100 + k)
        expr = Expr("cl2", fm.render(inst))
        out.append([label, _plays(expr, game, range(4))])
    return out


def _corpus() -> list:
    out = []
    for k, (name, proof) in enumerate(intproof.curated_theorem_corpus()):
        f = fm.sequent_to_formula(proof.sequent)
        game = verify.random_game(f, seed=3000 + k, valuation=VAL)
        expr = intproof.compile_proof(proof)
        out.append([name, _plays(expr, game, range(6), max_moves=4)])
    return out


class _Bad(Machine):
    def start(self, ctx):
        return ["9.z"]


class _Burst(Machine):
    def start(self, ctx):
        return [f"t{i}" for i in range(12)]


class _Wrong(Machine):
    def on_env(self, move):
        return ["1.b"] if move.startswith("2.") else []


def _a_to_a() -> GameRef:
    a = FiniteGame(T, {(B, "a"): FiniteGame(B, {(T, "b"): FiniteGame(T)})})
    return GameRef(fm.parse_formula("A -> A"), Interpretation({"A/0": lambda _: a}))


def _chain() -> GameRef:
    """The letter A as twelve moves t0 .. t11 by T; T wins only at the end."""
    node = FiniteGame(T)
    for i in reversed(range(12)):
        node = FiniteGame(B, {(T, f"t{i}"): node})
    return GameRef(fm.parse_formula("A"), Interpretation({"A/0": lambda _: node}))


def _edges() -> list:
    """Plays that end other than by quiescence, and scripted plays."""
    g = _a_to_a()
    plays = [
        simulate(Strategy(_Bad()), SilentEnv(), g),
        simulate(Strategy(_Burst()), SilentEnv(), _chain(), budget=7),
        simulate(build_strategy("ccs"), ScriptEnv([("move", "junk")]), g),
        simulate(build_strategy("ccs"), ScriptEnv([("move", "2.a"), "stop"]), g),
        simulate(Strategy(Machine()),
                 ScriptEnv(["pass", ("move", "2.a"), "pass", ("move", "1.x")]),
                 g, budget=30),
        simulate(Strategy(_Wrong()), RandomEnv(3), g),
        simulate(Strategy(Machine()), RandomEnv(4), g, budget=60),
    ]
    return [_transcript(t) for t in plays]


def _search() -> list:
    out = []
    for k, (sid, text, _) in enumerate(verify.named_strategy_games()):
        game = verify.random_game(fm.parse_formula(text), seed=5 + k % 3,
                                  depth=2, valuation=VAL)
        res = wins_against_all(build_strategy(sid), game, depth=2)
        out.append([sid, res.won_all, res.leaves])
    for k, (label, inst) in enumerate(_schema_slice()):
        game = verify.random_game(inst, seed=6, depth=2)
        res = wins_against_all(Expr("cl2", fm.render(inst)).strategy(), game,
                               depth=2)
        out.append([label, res.won_all, res.leaves])
    res = wins_against_all(Strategy(_Wrong()), _a_to_a(), depth=2)
    cex = res.counterexample
    out.append(["wrong", res.won_all, res.leaves,
                [[lm.player.value, lm.move] for lm in cex.run],
                cex.verdict.value, cex.halted_reason.value])
    return out


_CL2_LEAVES = (Atom("P"), Atom("Q"), Atom("R"), Elem("p"), Elem("q"), Top(),
               Bot())
_CL2_FANOUT = (ParConj, ParDisj, ChoiceConj, ChoiceDisj)


def _random_cl2(rng: random.Random, depth: int):
    """A propositional-fragment formula of depth <= depth; `p` and `q` clash
    with the fresh names rule (c) would pick for `P` and `Q`."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_CL2_LEAVES)
    kind = rng.randrange(6)
    if kind == 0:
        return Neg(_random_cl2(rng, depth - 1))
    if kind == 1:
        return Implies(_random_cl2(rng, depth - 1),
                       _random_cl2(rng, depth - 1))
    arity = rng.choice((2, 2, 3))
    return _CL2_FANOUT[kind - 2](
        tuple(_random_cl2(rng, depth - 1) for _ in range(arity)))


def _proofs() -> list:
    """Proof search: every schema instance and 1,000 seeded random formulas."""
    rng = random.Random(7)
    formulas = [inst for _, inst in verify.schema_instances()]
    formulas += [_random_cl2(rng, 4) for _ in range(1000)]
    out = []
    for f in formulas:
        try:
            proof = cl2.prove(f, max_nodes=300)
            result = proof and cl2.proof_to_text(proof)
        except cl2.SearchBudgetExceeded:
            result = "budget"
        out.append([fm.render(f), result])
    return out


JUNK = ["0", "3.x", "1.", ":", "junk", "1..1", "2.9", "0:", ".1", "♠"]


def _judge_runs():
    """Corrupted runs over every formula shape of size <= 3, each with its
    game: mostly candidate moves, else junk."""
    for idx, f in enumerate(verify._all_shapes(3)):
        itp = random_interpretation(idx, verify._signature_for(f), 2)
        game = GameRef(f, itp, Valuation())
        rng = random.Random(idx)
        for _ in range(3):
            run = []
            for _ in range(4):
                player = rng.choice((T, B))
                options = candidate_moves(game, tuple(run), player) \
                    if position_legal(game, tuple(run)) else []
                if rng.random() < 0.3 or not options:
                    run.append(Labmove(player, rng.choice(JUNK)))
                else:
                    run.append(Labmove(player, rng.choice(options)))
            yield game, tuple(run)


def _judge() -> list:
    """position_legal and winner on every prefix of corrupted runs."""
    return ["".join(("L" if position_legal(game, run[:k]) else "I")
                    + winner(game, run[:k]).value
                    for k in range(len(run) + 1))
            for game, run in _judge_runs()]


def _moves() -> list:
    """Both players' legal moves, with and without structural_only, at
    every legal prefix of the `judge` runs."""
    out = []
    for game, run in _judge_runs():
        for k in range(len(run) + 1):
            if not position_legal(game, run[:k]):
                break
            state = game_state(game, run[:k])
            out.append([legal_moves(state, p, structural_only=s)
                        for p in (T, B) for s in (False, True)])
    return out


def _oracle() -> list:
    """The oracle's (legal, winner) on every prefix of the `judge` runs."""
    out = []
    for game, run in _judge_runs():
        for k in range(len(run) + 1):
            legal, won = oracle.oracle_run(game.formula, game.interp,
                                           game.valuation, run[:k])
            out.append([legal, won.value])
    return out


SECTIONS = {"named": _named, "schemata": _schemata, "corpus": _corpus,
            "edges": _edges, "search": _search, "judge": _judge,
            "proofs": _proofs, "moves": _moves, "oracle": _oracle}


def digest(section: str) -> str:
    blob = json.dumps(SECTIONS[section](), separators=(",", ":"),
                      ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_golden_digest(section):
    assert digest(section) == GOLDEN[section], section


if __name__ == "__main__":
    for name in sorted(SECTIONS):
        print(f'    "{name}": "{digest(name)}",')
