"""The four workloads: inputs built from a seed, and one pass over them.

A pass walks the full input list of one acceptance suite (every schema
instance, named-strategy game, corpus derivation or formula shape) at a
reduced number of plays, and drives the engine through the same public
functions the ``verify_*`` suites call.  The seed chooses only the
interpretations, the environment seeds and the seeds of the exhaustive
search games, so every seed carries comparable load.

The few private helpers of ``clgames.verify`` that build suite inputs
(the letter signature, the structural script and the formula shapes) are
restated here, so that a refactor of those helpers cannot change or break
the benchmark's inputs.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import time
from collections import Counter

from clgames import (cl2, epm, formula as fm, games, intproof, oracle,
                     strategies, verify)
from clgames.games import B, T, GameRef, Labmove, Valuation

# Per-pass sizes.  Each pass takes a few seconds on one core, so a run of
# the benchmark's measuring time holds several passes of distinct inputs.
SCHEMATA_INTERPS, SCHEMATA_PLAYS = 2, 4
NAMED_INTERPS, NAMED_PLAYS = 4, 5
CORPUS_INTERPS, CORPUS_PLAYS, CORPUS_BASE_PLAYS = 5, 8, 2
ORACLE_MAX_SIZE, ORACLE_RUNS, ORACLE_RUN_LEN = 4, 3, 4
BLINDNESS_PROBES = 3
SEARCH_DEPTH = 2

NAMED_VALUATION = Valuation({"y": 2})
REFUTED = "P -> P /\\ P"
CORRUPT_MOVES = ("0", "3.x", "1.", ":", "junk", "1..1", "2.9")


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 30)


def signature(f) -> tuple:
    return tuple(sorted(fm.letters_of(f)))


def built(game: GameRef) -> GameRef:
    """Materialize the game's letter games now, as part of input generation.

    Interpretations build each letter's random game on first use, and that
    build costs more, and varies more, than a play.  Building them here keeps
    play latency a measure of play.  Arguments 0 to 3 cover every constant
    the workloads' plays can reach (choices are capped at 3).
    """
    for name, arity in game.interp.signature:
        for args in itertools.product(range(4), repeat=arity):
            game.interp.letter_game(name, args)
    return game


class Pass:
    """Runs ops, times them and records counters, failures and transcripts.

    An op is one random play, one scripted probe play, one exhaustive
    search or one oracle case.  An exception escaping an op is contained:
    it is recorded with the op id and counts as a failed op.
    """

    def __init__(self, pace, tracer=None):
        self.pace = pace
        self.tracer = tracer
        self.intervals: dict[str, list[tuple[float, float]]] = {
            "play": [], "probe": [], "search": [], "case": []}
        self.counters: Counter = Counter()
        self.failures: list[dict] = []
        self.transcripts: list[tuple] = []     # re-adjudicated after the pass
        self.ops = 0
        self.checks = 0                        # correctness checks besides ops

    def fail(self, op: int, label: str, message: str) -> None:
        self.failures.append({"op": op, "label": label, "error": message})

    def run_op(self, kind: str, label: str, fn):
        """Time fn(op) as one op; return its result, or None if it raised."""
        op = self.ops
        self.ops += 1
        span = (self.tracer.op_span(op, kind) if self.tracer
                else contextlib.nullcontext())
        result = None
        t0 = time.perf_counter()
        try:
            with span:
                result = fn(op)
        except Exception as exc:                  # contained per op
            self.fail(op, label, f"{kind} raised {type(exc).__name__}: {exc}")
        self.intervals[kind].append((t0, time.perf_counter()))
        self.pace.tick()
        return result

    def latency_ms(self) -> dict[str, list[float]]:
        """Each op's latency in reference milliseconds, by op kind."""
        return {kind: [1e3 * self.pace.reference_seconds(t0, t1)
                       for t0, t1 in spans]
                for kind, spans in self.intervals.items()}

    def prepare(self, label: str, fn):
        """Proof checking and compilation ahead of an item's ops."""
        self.checks += 1
        try:
            return fn()
        except Exception as exc:
            self.fail(-1, label, f"preparation raised {type(exc).__name__}: {exc}")
            return None
        finally:
            self.pace.tick()

    # -- the op kinds shared by the strategy workloads ----------------------

    def play(self, label: str, game: GameRef, play_fn, kind: str = "play"):
        def op(op_id):
            t = play_fn()
            self.counters["plays"] += 1
            self.counters["steps"] += t.steps
            self.transcripts.append((op_id, label, game, t))
            if t.verdict is not T:
                self.fail(op_id, label, f"lost {kind} ({t.halted_reason.value}):"
                                        f" run {list(t.run)}")
            return t
        return self.run_op(kind, label, op)

    def search(self, label: str, spec, f, seed: int,
               valuation: Valuation | None = None) -> None:
        def op(op_id):
            report = verify.Report(label)
            verify.exhaustive_check(report, label, spec, f, depth=SEARCH_DEPTH,
                                    seeds=(seed,), valuation=valuation)
            self.counters["searches"] += 1
            self.counters["leaves"] += report.counters.get("exhaustive-leaves", 0)
            for message in report.failures:
                self.fail(op_id, label, message)
        self.run_op("search", label, op)


# ---------------------------------------------------------------------------
# schemata: criterion 2

def setup_schemata(rng: random.Random) -> list:
    items = []
    for label, f in verify.schema_instances():
        plays = [(built(verify.random_game(f, seed=_seed(rng))),
                  [_seed(rng) for _ in range(SCHEMATA_PLAYS)])
                 for _ in range(SCHEMATA_INTERPS)]
        items.append((label, f, plays, _seed(rng)))
    return items


def run_schemata(items: list, p: Pass) -> None:
    for label, f, plays, search_seed in items:
        def prepare(f=f):
            proof = cl2.prove(f)
            if proof is None:
                raise ValueError("unprovable")
            ok, why = cl2.check_proof(proof)
            if not ok:
                raise ValueError(f"invalid proof: {why}")
            return strategies.Expr("cl2", fm.render(f))
        expr = p.prepare(label, prepare)
        if expr is None:
            continue
        p.counters["items"] += 1
        p.search(label, expr, f, search_seed)
        for game, seeds in plays:
            for s in seeds:
                p.play(label, game, lambda: verify.play_random(expr, game, seed=s))


# ---------------------------------------------------------------------------
# named: criterion 3, with live tree-of-trees invariants

def setup_named(rng: random.Random) -> list:
    items = []
    for sid, text, kind in verify.named_strategy_games():
        f = fm.parse_formula(text)
        plays = [(built(verify.random_game(f, seed=_seed(rng),
                                           valuation=NAMED_VALUATION)),
                  [_seed(rng) for _ in range(NAMED_PLAYS)])
                 for _ in range(NAMED_INTERPS)]
        items.append((f"{sid} on {text}", sid, f, kind == "l5", plays,
                      _seed(rng)))
    return items


def _named_play(p: Pass, sid: str, game: GameRef, seed: int, l5: bool):
    strat = strategies.build_strategy(sid)
    on_grant = None
    if l5:
        def on_grant(run):
            errs = verify.check_l5_invariants(run, strat.machine.tree, game)
            p.counters["l5_points"] += 1
            if errs:
                raise AssertionError(f"l5 invariant violated: {errs[0]}")
    return epm.simulate(strat, epm.RandomEnv(seed, max_moves=5), game,
                        budget=3000, on_grant=on_grant)


def run_named(items: list, p: Pass) -> None:
    for label, sid, f, l5, plays, search_seed in items:
        p.counters["items"] += 1
        for game, seeds in plays:
            for s in seeds:
                p.play(label, game, lambda: _named_play(p, sid, game, s, l5))
        p.search(label, sid, f, search_seed, valuation=NAMED_VALUATION)


# ---------------------------------------------------------------------------
# corpus: criterion 5

def structural_script(f, sig, val: Valuation) -> list:
    """The interpretation-independent environment script criterion 5 uses."""
    game = GameRef(f, games.random_interpretation(1, sig, 3), val)
    rng = random.Random(99)
    directives, run = [], []
    for _ in range(4):
        options = games.candidate_moves(game, tuple(run), B,
                                        structural_only=True)
        if not options:
            break
        mv = rng.choice(options)
        directives.append(("move", mv))
        run.append(Labmove(B, mv))
    directives.append("stop")
    return directives


def setup_corpus(rng: random.Random) -> list:
    val = NAMED_VALUATION
    items = []
    for name, proof in intproof.curated_theorem_corpus():
        f = fm.sequent_to_formula(proof.sequent)
        sig = signature(f)

        def game(**kw):
            return built(GameRef(f, games.random_interpretation(
                _seed(rng), sig, 3, **kw), val))
        plays = [(game(), [_seed(rng) for _ in range(CORPUS_PLAYS)])
                 for _ in range(CORPUS_INTERPS)]
        blind = [game() for _ in range(BLINDNESS_PROBES)]
        bases = [(game(dollar_base=base),
                  [_seed(rng) for _ in range(CORPUS_BASE_PLAYS)])
                 for base in verify.DOLLAR_BASES]
        items.append((name, proof, f, plays, _seed(rng),
                      structural_script(f, sig, val), blind, bases))
    return items


def run_corpus(items: list, p: Pass) -> None:
    for name, proof, f, plays, search_seed, script, blind, bases in items:
        def prepare(proof=proof):
            ok, why = intproof.check_proof(proof)
            if not ok:
                raise ValueError(why)
            return intproof.compile_proof(proof)
        expr = p.prepare(name, prepare)
        if expr is None:
            continue
        p.counters["items"] += 1
        for game, seeds in plays:
            for s in seeds:
                p.play(name, game, lambda: verify.play_random(
                    expr, game, seed=s, max_moves=4))
        p.search(name, expr, f, search_seed, valuation=NAMED_VALUATION)
        traces = []
        for game in blind:
            t = p.play(name, game, lambda: epm.simulate(
                expr.strategy(), epm.ScriptEnv(script), game, budget=2000),
                kind="probe")
            traces.append(t and tuple(t.run))
        if len(set(traces)) != 1:
            p.fail(p.ops - 1, name, "traces differ across interpretations")
        for game, seeds in bases:
            for s in seeds:
                p.play(name, game, lambda: verify.play_random(
                    expr, game, seed=s, max_moves=4))


# ---------------------------------------------------------------------------
# oracle: criterion 6

def all_shapes(max_size: int) -> list:
    """Every formula shape up to max_size nodes, as criterion 6 builds them."""
    leaves = [fm.Atom("P"), fm.Atom("Q"), fm.Atom("R", (fm.Var("x"),)),
              fm.Dollar(), fm.Top(), fm.Bot()]
    by_size = {1: leaves}
    for size in range(2, max_size + 1):
        items = []
        for sub in by_size[size - 1]:
            items += [fm.Neg(sub), fm.Bang(sub), fm.ChoiceAll("x", sub),
                      fm.ChoiceExists("x", sub)]
        for lsize in range(1, size - 1):
            for a in by_size[lsize]:
                for b in by_size[size - 1 - lsize]:
                    items += [fm.ParConj((a, b)), fm.ParDisj((a, b)),
                              fm.Implies(a, b), fm.ChoiceConj((a, b)),
                              fm.ChoiceDisj((a, b))]
        by_size[size] = items
    return [f for size in range(1, max_size + 1) for f in by_size[size]]


def setup_oracle(rng: random.Random) -> list:
    items = []
    for f in all_shapes(ORACLE_MAX_SIZE):
        itp = games.random_interpretation(_seed(rng), signature(f), 2)
        items.append((fm.render(f), built(GameRef(f, itp, Valuation())),
                      [_seed(rng) for _ in range(ORACLE_RUNS)]))
    return items


def _oracle_case(p: Pass, op: int, label: str, game: GameRef, seed: int):
    """One random run, 25% of its moves corrupted, classified move by move
    by the engine and by the oracle; then both adjudicate the winner."""
    f, itp, val = game.formula, game.interp, game.valuation
    rng = random.Random(seed)
    run: list = []
    legal_so_far = True
    for _ in range(ORACLE_RUN_LEN):
        player = rng.choice((T, B))
        options = (games.candidate_moves(game, tuple(run), player)
                   if legal_so_far else [])
        if rng.random() < 0.25 or not options:
            mv = rng.choice(CORRUPT_MOVES)
        else:
            mv = rng.choice(options)
        lm = Labmove(player, mv)
        if legal_so_far:
            status = games.classify_move(game, tuple(run), lm)
            oracle_ok, _ = oracle.oracle_run(f, itp, val, tuple(run) + (lm,))
            if (status is games.MoveStatus.LEGAL) != oracle_ok:
                p.fail(op, label, f"classification mismatch on run {run + [lm]}")
            legal_so_far = oracle_ok
        run.append(lm)
    ev_winner = games.winner(game, tuple(run))
    _, or_winner = oracle.oracle_run(f, itp, val, tuple(run))
    p.counters["cases"] += 1
    p.transcripts.append((op, label, game, epm.Transcript(
        tuple(run), ev_winner, 0, 0, epm.HaltReason.QUIESCENT)))
    if ev_winner is not or_winner:
        p.fail(op, label, f"winner mismatch on run {run}: evaluator"
                          f" {ev_winner}, oracle {or_winner}")


def run_oracle(items: list, p: Pass) -> None:
    for label, game, seeds in items:
        p.counters["items"] += 1
        for s in seeds:
            p.run_op("case", label,
                     lambda op: _oracle_case(p, op, label, game, s))


# ---------------------------------------------------------------------------
# Checks made after the timed pass, outside its window

def readjudicate(p: Pass) -> int:
    """Replay every stored transcript through the independent oracle.

    A play halted by an illegal environment move is a machine win whose run
    stops before that move, so the oracle must find the run legal.  Any
    other transcript's verdict must be the oracle's winner.  Returns the
    number of transcripts checked.
    """
    for op, label, game, t in p.transcripts:
        legal, won = oracle.oracle_run(game.formula, game.interp,
                                       game.valuation, t.run)
        if t.halted_reason is epm.HaltReason.ENV_ILLEGAL:
            ok = legal and t.verdict is T
        else:
            ok = won is t.verdict
        if not ok:
            p.fail(op, label, f"oracle disagrees with verdict {t.verdict}"
                              f" on run {list(t.run)}")
    return len(p.transcripts)


def check_refutation(p: Pass) -> None:
    """The duplication formula is not a theorem: proof search must fail."""
    p.checks += 1
    if cl2.prove(fm.parse_formula(REFUTED)) is not None:
        p.fail(-1, REFUTED, "cl2.prove found a proof")


WORKLOADS = {
    "schemata": (setup_schemata, run_schemata),
    "named": (setup_named, run_named),
    "corpus": (setup_corpus, run_corpus),
    "oracle": (setup_oracle, run_oracle),
}
