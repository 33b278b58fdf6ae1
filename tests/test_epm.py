from collections import deque

from clgames import formula as fm, intproof, verify
import pytest

from clgames.epm import (Environment, HaltReason, Machine, PlayContext,
                         RandomEnv, ScriptEnv, SilentEnv, Strategy,
                         Transcript, simulate, wins_against_all)
from clgames.games import (B, FiniteGame, GameRef, Interpretation,
                           InterpretationError, Labmove, T, Valuation,
                           candidate_moves, labmoves, position_legal,
                           successors, winner)
from clgames.strategies import MpMachine, build_strategy


def interp_a():
    a = FiniteGame(T, {(B, "a"): FiniteGame(B, {(T, "b"): FiniteGame(T)})})
    return Interpretation({"A/0": lambda _: a})


def game(text="A -> A"):
    return GameRef(fm.parse_formula(text), interp_a())


def chain_game(env_moves=()):
    """The letter A as a game: B's `env_moves`, then twelve moves t0 .. t11
    by T; T wins only at the end."""
    node = FiniteGame(T)
    for i in reversed(range(12)):
        node = FiniteGame(B, {(T, f"t{i}"): node})
    for mv in reversed(env_moves):
        node = FiniteGame(B, {(B, mv): node})
    return GameRef(fm.parse_formula("A"),
                   Interpretation({"A/0": lambda _: node}))


class Burst(Machine):
    """Twelve legal moves of `chain_game` in a row, from the start."""

    def start(self, ctx):
        return [f"t{i}" for i in range(12)]


class TestSimulate:
    def test_silent_environment_quiesces_with_a_win(self):
        t = simulate(build_strategy("ccs"), SilentEnv(), game())
        assert t.run == ()
        assert t.verdict is T
        assert t.halted_reason is HaltReason.QUIESCENT

    def test_copy_cat_transcript(self):
        env = ScriptEnv([("move", "2.a"), "stop"])
        t = simulate(build_strategy("ccs"), env, game())
        assert t.run == labmoves(("B", "2.a"), ("T", "1.a"))
        assert t.verdict is T

    def test_illegal_environment_move_wins_immediately(self):
        env = ScriptEnv([("move", "junk"), "stop"])
        t = simulate(build_strategy("ccs"), env, game())
        assert t.verdict is T
        assert t.halted_reason is HaltReason.ENV_ILLEGAL
        assert t.run == ()          # the illegal move is intercepted

    def test_illegal_machine_move_loses_loudly(self):
        class Bad(Machine):
            def start(self, ctx):
                return ["9.z"]
        t = simulate(Strategy(Bad()), SilentEnv(), game())
        assert t.verdict is B
        assert t.halted_reason is HaltReason.MACHINE_ILLEGAL
        assert t.diagnostic

    def test_non_ascii_digit_is_an_illegal_environment_move(self):
        g = GameRef(fm.parse_formula("top & bot"), interp_a())
        t = simulate(Strategy(Machine()), ScriptEnv([("move", "²")]), g)
        assert t.halted_reason is HaltReason.ENV_ILLEGAL
        assert t.verdict is T and t.run == ()

    def test_budget_halt_is_reported(self):
        # a start burst of twelve moves outlasts a budget of seven
        t = simulate(Strategy(Burst()), SilentEnv(), chain_game(), budget=7)
        assert (t.steps, t.grants) == (7, 0)
        assert t.halted_reason is HaltReason.BUDGET
        assert t.run == labmoves(*(("T", f"t{i}") for i in range(7)))
        assert t.verdict is B
        # the twelfth move wins the chain, but it also spends the budget:
        # the play ends there, with no grant
        t = simulate(Strategy(Burst()), SilentEnv(), chain_game(), budget=12)
        assert t.halted_reason is HaltReason.BUDGET
        assert (t.steps, t.grants, t.verdict) == (12, 0, T)

    def test_a_declined_grant_ends_the_play(self):
        # `pass` declines the first grant; the scripted move never comes
        env = ScriptEnv(["pass", ("move", "2.a")])
        t = simulate(build_strategy("ccs"), env, game())
        assert t.run == () and (t.steps, t.grants) == (1, 1)
        assert t.halted_reason is HaltReason.QUIESCENT

    def test_reproducibility(self):
        g = game()
        r1 = simulate(build_strategy("ccs"), RandomEnv(42), g)
        r2 = simulate(build_strategy("ccs"), RandomEnv(42), g)
        assert r1 == r2

    def test_transcripts_never_contain_an_illegal_env_move(self):
        g = game("!A -> A")
        for seed in range(30):
            t = simulate(build_strategy("l6a"), RandomEnv(seed), g)
            for k, lm in enumerate(t.run):
                if lm.player is B:
                    assert position_legal(g, t.run[:k + 1]), (seed, t.run)

    def test_transcript_text(self):
        env = ScriptEnv([("move", "2.a"), "stop"])
        t = simulate(build_strategy("ccs"), env, game())
        text = t.to_text("A -> A", Valuation({"x": 3}))
        assert "#game A -> A" in text
        assert "B 2.a" in text and "T 1.a" in text


class TestBursts:
    def test_a_burst_from_the_start_wins_quiescent(self):
        t = simulate(Strategy(Burst()), SilentEnv(), chain_game())
        assert t.verdict is T and t.halted_reason is HaltReason.QUIESCENT

    def test_a_burst_answers_the_first_grant(self):
        class Answer(Machine):
            def on_env(self, move):
                return [f"t{i}" for i in range(12)]
        env = ScriptEnv([("move", "go"), "stop"])
        t = simulate(Strategy(Answer()), env, chain_game(("go",)))
        # the machine granted first: the environment's move opens the run
        assert t.run[0] == Labmove(B, "go") and t.verdict is T


class TestExhaustive:
    def test_copy_cat_beats_every_small_adversary(self):
        res = wins_against_all(build_strategy("ccs"), game(), depth=2)
        assert res.won_all and res.leaves >= 3

    def test_broken_copy_cat_is_caught_with_a_counterexample(self):
        class Wrong(Machine):
            def on_env(self, move):
                if move.startswith("2."):
                    return ["1.b"]       # wrong payload: echoes b, not the move
                return []
        res = wins_against_all(Strategy(Wrong()), game(), depth=2)
        assert not res.won_all
        assert res.counterexample is not None
        assert res.counterexample.verdict is not T
        # search and simulate step the same play: replaying the
        # environment's moves gives the very same transcript
        cex = res.counterexample
        script = [("move", lm.move) for lm in cex.run if lm.player is B]
        replay = simulate(Strategy(Wrong()), ScriptEnv(script + ["stop"]),
                          game())
        assert replay == cex

    def test_silence_wins_when_the_environment_must_move(self):
        # both components are elementary wins: whether or not the
        # environment resolves its choice, doing nothing wins
        itp = Interpretation({"A/0": lambda _: FiniteGame(T)})
        g = GameRef(fm.parse_formula("A & A"), itp)
        res = wins_against_all(Strategy(Machine()), g, depth=2)
        assert res.won_all
        t = simulate(Strategy(Machine()), SilentEnv(), g)
        assert t.verdict is T and t.halted_reason is HaltReason.QUIESCENT


CTX = PlayContext(Valuation(), ())


def test_a_play_context_is_immutable():
    # forks of a machine share the context they were started with
    for name in ("valuation", "signature", "extra"):
        with pytest.raises(AttributeError):
            setattr(CTX, name, None)
        with pytest.raises(AttributeError):
            delattr(CTX, name)
    assert CTX.signature == () and CTX.valuation.assign == {}


def test_transcripts_are_equal_by_their_fields():
    run = labmoves(("T", "1"), ("B", "2"))
    t = Transcript(run, T, 3, 2, HaltReason.QUIESCENT)
    assert t == Transcript(run, T, 3, 2, HaltReason.QUIESCENT, "")
    assert t != Transcript(run, T, 3, 2, HaltReason.QUIESCENT, "why")
    assert t != Transcript(run, B, 3, 2, HaltReason.QUIESCENT)
    assert t != run and run != t


class TestSnapshots:
    def test_clone_replays_identically(self):
        s = build_strategy("ccs")
        assert s.next(CTX, ()) == []          # the copy-cat opens silently
        fork = s.clone()
        run = labmoves(("B", "2.a"))
        assert s.next(CTX, run) == fork.next(CTX, run) == ["1.a"]

    def test_clone_is_independent(self):
        s = build_strategy("l6c")
        first = s.next(CTX, ())
        c = s.clone()
        run = labmoves(*(("T", mv) for mv in first), ("B", "2.1.a"))
        assert c.next(CTX, run) == s.next(CTX, run)


class Recorder(Machine):
    """Plays `inner` and keeps the calls it gets in `calls`, "start" first
    and then each move it is handed.  Every call also appends the calls so
    far to `log`, a deque, which `Machine.fork` shares between forks."""

    def __init__(self, inner, log):
        self.inner = inner
        self.calls = []
        self.log = log

    def start(self, ctx):
        self.calls.append("start")
        self.log.append(tuple(self.calls))
        return self.inner.start(ctx)

    def on_env(self, move):
        self.calls.append(move)
        self.log.append(tuple(self.calls))
        return self.inner.on_env(move)


class TestFeeding:
    def test_the_machine_gets_the_start_and_each_environment_move_once(self):
        g = verify.random_game(fm.parse_formula("P -> P"), seed=2)
        log = deque()
        res = wins_against_all(
            Strategy(Recorder(build_strategy("ccs").machine, log)), g,
            depth=3)
        # every branch feeds its machine once per grant, so once per leaf,
        # and no two feeds share a history
        assert res.won_all and res.leaves == len(log) == len(set(log)) > 20
        for calls in log:
            assert calls[0] == "start" and "start" not in calls[1:]
            assert len(calls) == 1 or calls[:-1] in log
            # simulate's play of the branch's environment moves feeds the
            # machine the same calls, in the order of the run
            m = Recorder(build_strategy("ccs").machine, deque())
            script = [("move", mv) for mv in calls[1:]]
            t = simulate(Strategy(m), ScriptEnv(script), g)
            assert t.halted_reason is HaltReason.QUIESCENT
            assert m.calls == list(calls)
            assert [lm.move for lm in t.run if lm.player is B] == \
                list(calls[1:])

    def test_the_budget_is_checked_before_the_machine_is_fed(self):
        g = verify.random_game(fm.parse_formula("P -> P"), seed=0)
        mv = successors(g.root(), B)[0][0]
        env = lambda: ScriptEnv([("move", mv)])
        # the environment's move uses up a budget of one: no feed, no fault
        t = simulate(Strategy(Crashing()), env(), g, budget=1)
        assert t.halted_reason is HaltReason.BUDGET
        assert t.run == labmoves(("B", mv)) and not t.diagnostic
        t = simulate(Strategy(Crashing()), env(), g, budget=2)
        assert t.halted_reason is HaltReason.MACHINE_FAULT
        assert t.verdict is B and "in on_env" in t.diagnostic


class Crashing(Machine):
    def on_env(self, move):
        raise KeyError(move)


class Bouncer(Machine):
    """Sends every move it sees back into the antecedent."""

    def on_env(self, move):
        return ["1." + move[2:]]


class Echo(Machine):
    def on_env(self, move):
        return [move]


class TestFaults:
    def test_raising_machine_loses_with_a_traceback(self):
        env = ScriptEnv([("move", "2.a"), "stop"])
        t = simulate(Strategy(Crashing()), env, game())
        assert t.halted_reason is HaltReason.MACHINE_FAULT
        assert t.verdict is B
        assert t.run == labmoves(("B", "2.a"))
        assert t.diagnostic.startswith("machine raised KeyError")
        assert "in on_env" in t.diagnostic          # the faulting frame

    def test_search_reports_a_raising_machine_as_a_counterexample(self):
        res = wins_against_all(Strategy(Crashing()), game(), depth=2)
        assert not res.won_all
        assert res.counterexample.halted_reason is HaltReason.MACHINE_FAULT
        assert res.counterexample.verdict is B
        assert "KeyError" in res.counterexample.diagnostic

    def test_a_reply_that_is_no_list_is_a_machine_loss(self):
        class Mute(Machine):
            def on_env(self, move):
                self.last = move                  # and no return
        env = ScriptEnv([("move", "2.a")])
        t = simulate(Strategy(Mute()), env, game())
        assert t.halted_reason is HaltReason.MACHINE_FAULT
        assert t.verdict is B
        assert t.diagnostic.startswith("machine raised TypeError")

    def test_relay_loop_in_a_composition_is_a_machine_loss(self):
        machine = MpMachine([Echo()], Bouncer())
        t = simulate(Strategy(machine), ScriptEnv([("move", "2.a")]), game())
        assert t.halted_reason is HaltReason.MACHINE_FAULT
        assert t.verdict is B
        assert "relay loop" in t.diagnostic

    def test_a_composer_move_into_no_part_is_a_machine_loss(self):
        class Opener(Machine):
            def start(self, ctx):
                return ["1.0.x"]        # parts are numbered from 1
        machine = MpMachine([Machine(), Machine()], Opener())
        t = simulate(Strategy(machine), SilentEnv(), game())
        assert t.halted_reason is HaltReason.MACHINE_FAULT
        assert t.verdict is B and t.run == ()
        assert "composition shape mismatch: '1.0.x'" in t.diagnostic

    def test_a_bad_script_directive_is_an_environment_fault(self):
        env = ScriptEnv([("jump", "2.a")])
        t = simulate(build_strategy("ccs"), env, game())
        assert t.halted_reason is HaltReason.ENV_FAULT
        assert t.verdict is T
        assert "bad directive ('jump', '2.a')" in t.diagnostic

    def test_raising_environment_is_a_machine_win(self):
        class Broken(Environment):
            def on_permission(self, state, run):
                raise ValueError("no move")
        t = simulate(build_strategy("ccs"), Broken(), game())
        assert t.halted_reason is HaltReason.ENV_FAULT
        assert t.verdict is T
        assert "ValueError: no move" in t.diagnostic

    def test_undefined_letter_game_is_not_an_environment_fault(self):
        class Chooser(Environment):
            def on_permission(self, state, run):
                return successors(state, B)[0][0]

        def partial(args):
            raise InterpretationError("no game")
        itp = Interpretation({"A/0": interp_a().letters["A/0"],
                              "R/1": partial})
        g = GameRef(fm.parse_formula("A & R(2)"), itp)
        with pytest.raises(InterpretationError, match=r"R\(2\)"):
            simulate(build_strategy("ccs"), Chooser(), g)

    def test_quitting_environment_still_exits(self):
        class Quit(Environment):
            def on_permission(self, state, run):
                raise SystemExit(0)
        with pytest.raises(SystemExit):
            simulate(build_strategy("ccs"), Quit(), game())


class Recording(Environment):
    """A RandomEnv that records, at each grant, the legal moves and the
    outcome of the state it is handed and of a replay of the run."""

    def __init__(self, game, seed):
        self.game = game
        self.inner = RandomEnv(seed, max_moves=5)
        self.seen = []

    def on_permission(self, state, run):
        self.seen.append(([m for m, _ in successors(state, B)],
                          candidate_moves(self.game, run, B),
                          state.outcome(), winner(self.game, run)))
        return self.inner.on_permission(state, run)


def _plays_with_state_checks():
    val = Valuation({"y": 2})
    for k, (sid, text, _) in enumerate(verify.named_strategy_games()):
        game = verify.random_game(fm.parse_formula(text), seed=k,
                                  valuation=val)
        yield sid, game, lambda sid=sid: build_strategy(sid)
    for k, (name, proof) in enumerate(intproof.curated_theorem_corpus()):
        game = verify.random_game(fm.sequent_to_formula(proof.sequent),
                                  seed=k, valuation=val)
        yield name, game, intproof.compile_proof(proof).strategy


class TestPlayState:
    def test_environment_sees_the_state_after_the_run(self):
        # a stale or forked-away state would offer other moves, or another
        # verdict, than a replay of the run from the start
        grants = 0
        for label, game, strategy in _plays_with_state_checks():
            for seed in range(3):
                env = Recording(game, seed)
                t = simulate(strategy(), env, game, budget=3000)
                assert t.halted_reason is not HaltReason.ENV_FAULT, label
                assert env.seen and t.grants == len(env.seen), label
                for moves, replayed, outcome, won in env.seen:
                    assert moves == replayed, (label, seed)
                    assert outcome is won, (label, seed)
                grants += len(env.seen)
        assert grants > 250


class TestUniformity:
    def test_machine_actions_ignore_the_interpretation(self):
        f = fm.parse_formula("!(A & A) -> !A")
        # structure-level moves only: their legality never depends on the
        # interpretation, so the runs must agree exactly
        script = [("move", "2.:"), ("move", "2.0:"), "stop"]
        runs = []
        for seed in (5, 6, 7):
            from clgames.games import random_interpretation
            itp = random_interpretation(seed, (("A", 0),), 3)
            g = GameRef(f, itp)
            t = simulate(build_strategy("l11a[i=1,n=2]"),
                         ScriptEnv(list(script)), g)
            runs.append(t.run)
        assert len(set(runs)) == 1
