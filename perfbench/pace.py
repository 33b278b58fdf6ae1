"""Machine-speed calibration by interleaved reference slices.

On a shared machine the speed of the same Python code can move by 1.8x
within a fraction of a second, and CPU time moves with wall time.  So the
worker runs a fixed pure-Python reference slice every INTERVAL_S between
ops, and converts each measured interval to *reference seconds*: its wall
time times NOMINAL_SLICE_S over the median slice time measured within
WINDOW_S of it.  Slices never run inside an op, and the time spent in them
is left out of every interval.  The slice does not touch the engine, so a
faster engine still reads faster.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

NOMINAL_SLICE_S = 0.0008      # the slice time the reported seconds assume
INTERVAL_S = 0.025
WINDOW_S = 0.03


class _Node:
    __slots__ = ("kind", "kids")

    def __init__(self, kind: str, kids: tuple = ()):
        self.kind = kind
        self.kids = kids


# A small game-shaped tree and run.  The slice splits the run's labelled
# moves among the tree's components the way whole-run legality checks do:
# a slice that resembles the engine's work slows down by the same factor.
_TREE = _Node("par", (_Node("neg", (_Node("leaf"),)),
                      _Node("par", (_Node("leaf"), _Node("choice", (
                          _Node("leaf"), _Node("leaf")))))))
_RUN = tuple(("B" if i % 2 else "T", f"{1 + i % 2}.{i % 3}.x{i}")
             for i in range(8))


def _walk(node: _Node, run: tuple) -> bool:
    if node.kind == "leaf":
        return len(run) < 9
    if node.kind == "neg":
        return _walk(node.kids[0],
                     tuple(("T" if p == "B" else "B", m) for p, m in run))
    if node.kind == "choice":
        if not run:
            return True
        head = run[0][1].partition(".")[0]
        return _walk(node.kids[len(head) % 2], run[1:])
    parts: list[list] = [[] for _ in node.kids]
    for p, m in run:
        head, dot, rest = m.partition(".")
        if not dot or not head.isdigit() or int(head) > len(parts):
            return False
        parts[int(head) - 1].append((p, rest))
    return all(_walk(k, tuple(pp)) for k, pp in zip(node.kids, parts))


def reference_slice() -> int:
    return sum(_walk(_TREE, _RUN) for _ in range(60))


class Pace:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.last = float("-inf")

    def tick(self, force: bool = False) -> None:
        """Run a reference slice if INTERVAL_S has passed since the last."""
        if force or time.perf_counter() - self.last >= INTERVAL_S:
            t0 = time.perf_counter()
            reference_slice()
            self.last = time.perf_counter()
            self.starts.append(t0)
            self.ends.append(self.last)

    def factor(self, t0: float, t1: float) -> float:
        lo = bisect_left(self.ends, t0 - WINDOW_S)
        hi = bisect_right(self.starts, t1 + WINDOW_S)
        if lo >= hi:
            lo, hi = 0, len(self.starts)
        return NOMINAL_SLICE_S / statistics.median(
            e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def reference_seconds(self, t0: float, t1: float) -> float:
        """[t0, t1] in reference seconds, less the slices run inside it."""
        total, cursor = 0.0, t0
        first = bisect_left(self.starts, t0)
        for s, e in zip(self.starts[first:], self.ends[first:]):
            if s >= t1:
                break
            total += (s - cursor) * self.factor(cursor, s)
            cursor = e
        return total + max(0.0, t1 - cursor) * self.factor(cursor, t1)
