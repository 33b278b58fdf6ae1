"""The interaction model: permission-granting strategies vs environments.

A strategy is a deterministic transducer over the observed run.  It sees
only the run, the valuation and the letter signature -- never the
interpretation -- which is exactly what makes a winning strategy uniform.
The machine acts at the start and in reply to each environment move, and
nowhere else: `Strategy.next(ctx, run)` returns its whole reply, a burst
of moves, after which it grants permission.  At a grant the environment
answers `on_permission(state, run)` with at most one move, where `state`
is the game state after `run`; it sees the same run the machine sees, and
draws its legal moves from `legal_moves(state, B)`.  An environment that
declines a grant (None) ends the play: once the machine has granted it
has nothing left to do until the environment moves, and the verdict is
the outcome of the run so far.
The stepper checks each environment move before the machine sees it: an
illegal one ends the play with an immediate machine win, so machines are
handed only legal moves and never check them again.  A move a machine
cannot read (only possible on a game it was not built for) raises, and
the play ends `machine_fault`.

One play stepper runs this protocol for both random play (`simulate`) and
exhaustive search (`wins_against_all`): the machine replies and grants
permission, the environment answers with one checked move or ends the
play, and a step budget bounds the whole play.  The stepper alone holds
the play state: the context, the run and the game state after it.  So
checking a move is one `step` of that state, the environment is handed
it at every grant, the verdict is its `outcome()`, and the run is the
play's only record.  A machine that raises ends the play as a machine
loss, an environment that raises as a machine win; either way the
diagnostic carries a short traceback.  An `InterpretationError` is not
contained: a letter game that cannot be built leaves the game undefined,
so no verdict is given.

A winning strategy depends only on the formula, never on the play, so
`strategies` builds each strategy once per process and hands every play a
`Machine.fork()` of that prototype; the search forks the machine at every
branch the same way (`Strategy.clone`).  A fork makes the new instance
with `object.__new__` and copies its attributes, so `__init__` never runs
again: nothing the prototype checked or computed is redone per play.
"""

from __future__ import annotations

import enum
import random
import traceback
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional, Sequence

from .games import (B, GameRef, InterpretationError, Labmove, Player, Run,
                    Signature, State, T, Valuation, advance, legal_moves,
                    successors)


@dataclass(frozen=True)
class PlayContext:
    """Public play data: the valuation oracle and the letter signature."""
    valuation: Valuation
    signature: Signature = ()


class Machine:
    """One-pass reactive core of a strategy.

    start() may emit proactive moves; on_env() reacts to one environment
    move with a (possibly empty) burst of machine moves.  The machine acts
    nowhere else, so a play whose environment declines a grant is over.
    """

    def start(self, ctx: PlayContext) -> list[str]:
        return []

    def on_env(self, move: str) -> list[str]:
        return []

    def fork(self) -> "Machine":
        """An independent copy of this machine in its current state, made
        without running `__init__`.

        Every `list`, `dict` and `set` attribute is copied one level deep,
        and every `Machine` held in an attribute or in such a container is
        forked; all other attributes are shared, so they must be immutable
        (strings, numbers, tuples, frozensets, formulas, proofs, contexts).
        """
        other = object.__new__(type(self))
        state = vars(other)
        for name, value in vars(self).items():
            if isinstance(value, Machine):
                value = value.fork()
            elif isinstance(value, list):
                value = [_fork(v) for v in value]
            elif isinstance(value, dict):
                value = {k: _fork(v) for k, v in value.items()}
            elif isinstance(value, set):
                value = {_fork(v) for v in value}
            state[name] = value
        return other


def _fork(value):
    return value.fork() if isinstance(value, Machine) else value


class Strategy:
    """A machine as a play runs it; the play, not the strategy, holds the
    context and the run."""

    def __init__(self, machine: Machine):
        self.machine = machine

    def next(self, ctx: PlayContext, run: Sequence[Labmove]) -> list[str]:
        """The machine's whole reply to `run`: its start on the empty run,
        else its reply to the last move, which is the environment's."""
        if not run:
            return self.machine.start(ctx)
        return self.machine.on_env(run[-1].move)

    def clone(self) -> "Strategy":
        other = object.__new__(type(self))
        other.machine = self.machine.fork()
        return other


# ---------------------------------------------------------------------------
# Environments

class Environment:
    def on_permission(self, state: State, run: Run) -> Optional[str]:
        """A move answering the grant, or None to decline it and end the
        play; `state` is after `run`."""
        return None


class SilentEnv(Environment):
    pass


class ScriptEnv(Environment):
    """Replays directives: ("move", m) emits m; "pass", "stop" and the end
    of the script decline the grant, which ends the play."""

    def __init__(self, directives):
        self.directives = list(directives)
        self.k = 0

    def on_permission(self, state, run):
        if self.k >= len(self.directives):
            return None
        d = self.directives[self.k]
        if d in ("pass", "stop"):
            return None
        self.k += 1
        if isinstance(d, tuple) and d[0] == "move":
            return d[1]
        raise ValueError(f"bad directive {d!r}")

    @staticmethod
    def from_text(text: str) -> "ScriptEnv":
        directives = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line == "pass" or line == "stop":
                directives.append(line)
            elif line.startswith("move "):
                directives.append(("move", line[5:].strip()))
            else:
                raise ValueError(f"bad script line {line!r}")
        return ScriptEnv(directives)


class RandomEnv(Environment):
    """Seeded adversary: on each grant, with probability 0.8 and at most
    `max_moves` times a play, plays a random legal move."""

    def __init__(self, seed: int, max_moves: int = 6):
        self.rng = random.Random(seed)
        self.max_moves = max_moves
        self.made = 0

    def on_permission(self, state, run):
        if self.made >= self.max_moves or self.rng.random() > 0.8:
            return None
        legal = legal_moves(state, B)
        if not legal:
            return None
        self.made += 1
        return self.rng.choice(legal)


# ---------------------------------------------------------------------------
# Simulation

class HaltReason(str, enum.Enum):
    QUIESCENT = "quiescent"
    BUDGET = "budget"
    ENV_ILLEGAL = "env_illegal"
    MACHINE_ILLEGAL = "machine_illegal"
    MACHINE_FAULT = "machine_fault"
    ENV_FAULT = "env_fault"


@dataclass(slots=True)
class Transcript:
    """A finished play.  `grants` counts the environment's moves, plus one
    when the play ended at a grant, and `steps` the run's moves plus that
    last grant."""
    run: Run
    verdict: Player
    steps: int
    grants: int
    halted_reason: HaltReason
    diagnostic: str = ""

    def to_text(self, game_label: str = "", valuation: Optional[Valuation] = None) -> str:
        lines = []
        if game_label:
            lines.append(f"#game {game_label}")
        if valuation is not None:
            pairs = " ".join(f"{k}={v}" for k, v in sorted(valuation.assign.items()))
            lines.append(f"#valuation default={valuation.default} {pairs}".rstrip())
        lines.extend(f"{lm.player.value} {lm.move}" for lm in self.run)
        lines.append(f"#verdict {self.verdict.value} reason={self.halted_reason.value}"
                     f" steps={self.steps} grants={self.grants}")
        return "\n".join(lines) + "\n"


def _fault(who: str, exc: Exception) -> str:
    frames = "".join(traceback.format_tb(exc.__traceback__, limit=-2))
    return f"{who} raised {type(exc).__name__}: {exc}\n{frames}".rstrip()


class _Play:
    """One play in progress: the strategy, its context, the run and the
    game state after it, stepped through the permission protocol."""

    def __init__(self, strategy: Strategy, game: GameRef, budget: int):
        self.strategy = strategy
        self.ctx = PlayContext(game.valuation, game.interp.signature)
        self.budget = budget
        self.run: list[Labmove] = []
        self.state: State = game.root()
        self.halted: Optional[HaltReason] = None
        self.diagnostic = ""

    def halt(self, reason: HaltReason, diagnostic: str = "") -> None:
        self.halted = reason
        self.diagnostic = diagnostic

    def machine_turn(self) -> bool:
        """Feed the machine the start or the environment's last move and
        step its reply, cut at the step budget.  True at the grant that
        follows; False when the play ends: an illegal move, a fault or the
        budget, which is checked before the machine is fed."""
        if len(self.run) < self.budget:
            try:
                moves = list(islice(self.strategy.next(self.ctx, self.run),
                                    self.budget - len(self.run)))
            except Exception as exc:
                self.halt(HaltReason.MACHINE_FAULT, _fault("machine", exc))
                return False
            for mv in moves:
                lm = Labmove(T, mv)
                nxt = advance(self.state, lm)
                self.run.append(lm)
                if nxt is None:
                    self.halt(HaltReason.MACHINE_ILLEGAL,
                              f"machine made illegal move {mv!r}")
                    return False
                self.state = nxt
            if len(self.run) < self.budget:
                return True
        self.halt(HaltReason.BUDGET)
        return False

    def env_move(self, mv: str) -> bool:
        """Apply an environment move; an illegal one ends the play (False)."""
        nxt = advance(self.state, Labmove(B, mv))
        if nxt is None:
            self.halt(HaltReason.ENV_ILLEGAL,
                      f"environment attempted illegal move {mv!r}")
            return False
        self.run.append(Labmove(B, mv))
        self.state = nxt
        return True

    def fork(self, mv: str, state: State) -> "_Play":
        """An independent copy of this play in which the environment answers
        the grant with the legal move `mv`, which leads to `state`."""
        other = object.__new__(type(self))
        vars(other).update(vars(self), strategy=self.strategy.clone(),
                           run=self.run + [Labmove(B, mv)], state=state)
        return other

    def transcript(self) -> Transcript:
        if self.halted in (HaltReason.ENV_ILLEGAL, HaltReason.ENV_FAULT):
            verdict = T
        elif self.halted in (HaltReason.MACHINE_FAULT,
                             HaltReason.MACHINE_ILLEGAL):
            verdict = B
        else:
            verdict = self.state.outcome()
        run = tuple(self.run)
        # these halts follow a grant that no environment move answered
        last = self.halted in (HaltReason.QUIESCENT, HaltReason.ENV_ILLEGAL,
                               HaltReason.ENV_FAULT)
        return Transcript(run, verdict, len(run) + last,
                          sum(lm.player is B for lm in run) + last,
                          self.halted, self.diagnostic)


def simulate(strategy: Strategy, env: Environment, game: GameRef,
             budget: int = 4000,
             on_grant: Optional[Callable[[Run], None]] = None) -> Transcript:
    """Alternating play loop; see module docstring for the contract.

    on_grant fires at each permission point, i.e. when the machine has
    flushed its responses.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    play = _Play(strategy, game, budget)
    while play.machine_turn():
        run = tuple(play.run)
        if on_grant:
            on_grant(run)
        try:
            mv = env.on_permission(play.state, run)
        except InterpretationError:
            raise                 # the game is undefined here, not the env
        except Exception as exc:
            play.halt(HaltReason.ENV_FAULT, _fault("environment", exc))
            break
        if mv is None:
            play.halt(HaltReason.QUIESCENT)
            break
        if not play.env_move(mv):
            break
    return play.transcript()


@dataclass
class SearchResult:
    won_all: bool
    leaves: int
    counterexample: Optional[Transcript] = None


class BudgetExceeded(RuntimeError):
    pass


SEARCH_BUDGET = 2000    # step budget of each searched play
MAX_LEAVES = 100_000    # leaves a search may see before it gives up


def wins_against_all(strategy: Strategy, game: GameRef,
                     depth: int) -> SearchResult:
    """Exhaustively explore environment behaviors with <= depth env moves.

    Each play runs the same steps as `simulate`.  At each grant the
    environment either declines it, which ends the play as in `simulate`,
    or makes any of its legal moves, with choices of constants capped as
    in `legal_moves`; every such move continues a forked copy of the play.
    A lost play is returned as the counterexample transcript.
    """
    leaves = 0

    def explore(play: _Play, decisions: int) -> Optional[Transcript]:
        nonlocal leaves
        if not play.machine_turn():
            t = play.transcript()
            return t if t.verdict is not T else None
        # silent option: the environment declines the grant
        leaves += 1
        if leaves > MAX_LEAVES:
            raise BudgetExceeded(f"exhaustive search exceeded {MAX_LEAVES} leaves")
        if play.state.outcome() is not T:
            play.halt(HaltReason.QUIESCENT)
            return play.transcript()
        if decisions >= depth:
            return None
        for mv, nxt in successors(play.state, B):
            cex = explore(play.fork(mv, nxt), decisions + 1)
            if cex is not None:
                return cex
        return None

    cex = explore(_Play(strategy.clone(), game, SEARCH_BUDGET), 0)
    return SearchResult(cex is None, leaves, cex)
