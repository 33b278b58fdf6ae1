"""Outside-in layer tracing: wraps the engine's public functions with spans.

Nothing in ``src/`` is edited.  Each hooked function is replaced by a
wrapper that records one span: name, start, end, parent span and the id of
the benchmark op it ran under.  A name bound elsewhere with ``from ...
import`` is rebound in every ``clgames`` module that holds it, so calls made
through those references are traced too.

Spans are kept in flat typed arrays (28 bytes each) because legality checks
produce 10^5 to 10^6 of them per pass.  ``Tracer.summary`` turns them into
calls and self time per name once the pass is over; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import types
from array import array
from collections import Counter

# The public functions the per-layer metrics name, grouped by module.
# "strategies.Machine.on_env" / ".start" stand for every Machine subclass
# that defines the method itself (cl2.ProofMachine included).
HOOKS = (
    "games.classify_move",
    "games.position_legal",
    "games.prelegal_and_tree",
    "games.winner",
    "games.candidate_moves",
    "games.random_interpretation",
    "epm.simulate",
    "epm.wins_against_all",
    "epm.Strategy.clone",
    "epm.Strategy.next",
    "epm.RandomEnv.on_permission",
    "strategies.Expr.build",
    "strategies.build_machine",
    "strategies.Machine.on_env",
    "strategies.Machine.start",
    "cl2.prove",
    "cl2.check_proof",
    "cl2.ProofMachine.__init__",
    "formula.parse_formula",
    "formula.render",
    "intproof.check_proof",
    "intproof.compile_proof",
    "oracle.oracle_run",
    "verify.check_l5_invariants",
    "verify.play_random",
    "verify.exhaustive_check",
)

# Counters and ratios measured at the same boundaries as the spans.
DERIVED = {
    "games.candidate_moves.yield": "ratio",
    "epm.simulate.steps": "count",
    "epm.simulate.grants": "count",
    "epm.simulate.halt.quiescent": "count",
    "epm.simulate.halt.budget": "count",
    "epm.simulate.halt.env_illegal": "count",
    "epm.simulate.halt.machine_illegal": "count",
    "epm.wins_against_all.leaves": "count",
    "epm.RandomEnv.move_ratio": "ratio",
    "strategies.Expr.build.distinct_ratio": "ratio",
    "cl2.check_proof.distinct_ratio": "ratio",
}

_MACHINE_METHODS = ("strategies.Machine.on_env", "strategies.Machine.start")


def _machine_classes(base):
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def resolve(name: str):
    """The (owner, attribute) pairs a hook name stands for; [] if gone."""
    mod_name, *path = name.split(".")
    try:
        obj = importlib.import_module(f"clgames.{mod_name}")
        for part in path[:-1]:
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return []
    attr = path[-1]
    owners = _machine_classes(obj) if name in _MACHINE_METHODS else [obj]
    return [(o, attr) for o in owners if attr in vars(o)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op = -1
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {"strategies.Expr.build": set(),
                                         "cl2.check_proof": set()}
        self.unhooked: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name in HOOKS:
            targets = resolve(name)
            if not targets:
                self.unhooked.append(name)
                continue
            nid = len(self.names)
            self.names.append(name)
            observe = _OBSERVERS.get(name)
            for owner, attr in targets:
                orig = vars(owner)[attr]
                wrapped = self._wrap(nid, orig, observe and
                                     functools.partial(observe, self))
                self._set(owner, attr, wrapped)
                if isinstance(owner, types.ModuleType):
                    self._rebind_imports(orig, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind_imports(self, orig, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("clgames."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapped)

    def _wrap(self, nid: int, fn, observe):
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(tracer.op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    # -- op spans, recorded by the benchmark around each op ----------------

    @contextlib.contextmanager
    def op_span(self, op: int, kind: str):
        """The root span of one op; every hooked span inside carries its id."""
        name = f"op.{kind}"
        if name not in self.names:
            self.names.append(name)
        idx = len(self.start)
        self.op = op
        self.name_id.append(self.names.index(name))
        self.parent.append(self.stack[-1])
        self.op_id.append(op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()
            self.op = -1

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """calls and self seconds per span name, plus the derived counts."""
        n = len(self.start)
        covered = [0.0] * n
        calls: Counter = Counter()
        self_s: Counter = Counter()
        under_candidates = 0
        cand = self._nid("games.candidate_moves")
        classify = self._nid("games.classify_move")
        for i in range(n):
            d = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                covered[p] += d
                if self.name_id[i] == classify and self.name_id[p] == cand:
                    under_candidates += 1
        for i in range(n):
            nm = self.names[self.name_id[i]]
            calls[nm] += 1
            self_s[nm] += self.end[i] - self.start[i] - covered[i]
        c = self.counts
        out = {"calls": dict(calls), "self_s": dict(self_s),
               "spans": n, "unhooked": list(self.unhooked)}
        derived = {k: float(c[k]) for k in DERIVED}
        derived["games.candidate_moves.yield"] = _ratio(
            c["candidate_moves.returned"], under_candidates)
        derived["epm.RandomEnv.move_ratio"] = _ratio(
            c["on_permission.moves"], calls["epm.RandomEnv.on_permission"])
        for nm, seen in self.distinct.items():
            derived[f"{nm}.distinct_ratio"] = _ratio(len(seen), calls[nm])
        out["derived"] = derived
        return out

    def _nid(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -2


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _observe_simulate(tracer, args, t):
    c = tracer.counts
    c["epm.simulate.steps"] += t.steps
    c["epm.simulate.grants"] += t.grants
    c[f"epm.simulate.halt.{t.halted_reason.value}"] += 1


def _observe_search(tracer, args, result):
    tracer.counts["epm.wins_against_all.leaves"] += result.leaves


def _observe_candidates(tracer, args, moves):
    tracer.counts["candidate_moves.returned"] += len(moves)


def _observe_permission(tracer, args, move):
    if move is not None:
        tracer.counts["on_permission.moves"] += 1


def _observe_build(tracer, args, machine):
    tracer.distinct["strategies.Expr.build"].add(args[0])


def _observe_check(tracer, args, verdict):
    tracer.distinct["cl2.check_proof"].add(args[0])


_OBSERVERS = {
    "epm.simulate": _observe_simulate,
    "epm.wins_against_all": _observe_search,
    "games.candidate_moves": _observe_candidates,
    "epm.RandomEnv.on_permission": _observe_permission,
    "strategies.Expr.build": _observe_build,
    "cl2.check_proof": _observe_check,
}
