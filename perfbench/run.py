"""Seeded verification benchmark for the clgames engine.

    python3 perfbench/run.py --workload {schemata,named,corpus,oracle}
                             --seed N --seconds S --trace {0,1}

Runs passes of one workload, each in a fresh worker process, for about S
seconds, then prints every metric by name and unit, and as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 gives the end-to-end metrics.  Passes 0, 0, 1, 2, ... run; pass 0
runs twice and must reproduce its work counters exactly.

--trace 1 gives the per-layer metrics.  Passes run in pairs, untraced then
traced on the same inputs; each pair must give identical work counters,
and the difference of their pass times is the tracing overhead.

Exits 1 when any op or check fails, and 2 when the engine's sources are
not next to the benchmark.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("schemata", "named", "corpus", "oracle")
DEADLINE_S = 170             # every run ends well inside three minutes

# The op whose latency each workload's run_ms reports.
RUN_OP = {"schemata": "play", "named": "play", "corpus": "play",
          "oracle": "case"}
WORK_COUNTERS = ("items", "plays", "searches", "leaves", "steps",
                 "l5_points", "cases")


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, index: int, trace: int,
           started: float) -> dict:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError("out of time before the pass could start")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass", str(index), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=left, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"pass {index} crashed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    engine = Path(result["engine"]).resolve()
    if ROOT / "src" not in engine.parents:
        raise BenchError(f"worker imported the engine from {engine}")
    return result


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<34} {value:14.4f} {unit:<6} {note}")


def show_latency(name: str, values: list[float], q: int) -> None:
    beyond = len(values) - int(len(values) * q / 100)
    show(f"{name}.p50", statistics.median(values), "ms", f"n={len(values)}")
    show(f"{name}.p{q}", percentile(values, q), "ms",
         f"n={len(values)}, {beyond} beyond")


def compare_counters(label: str, ref: dict, other: dict) -> list[str]:
    if ref == other:
        return []
    keys = sorted(set(ref) | set(other))
    diff = ", ".join(f"{k} {ref.get(k, 0)} vs {other.get(k, 0)}"
                     for k in keys if ref.get(k, 0) != other.get(k, 0))
    return [f"work counters differ ({label}): {diff}"]


def more_time(t0: float, done: int, seconds: float) -> bool:
    """Start another pass only if one more, of average length, ends in time."""
    elapsed = time.perf_counter() - t0
    return elapsed + elapsed / done <= seconds


def run_untraced(args, started) -> tuple[list[dict], list[str]]:
    """Passes 0, 0, 1, 2, ... until the time is up; pass 0 runs twice so
    that its work counters can be checked to repeat exactly."""
    passes: list[dict] = []
    t0 = time.perf_counter()
    while len(passes) < 2 or more_time(t0, len(passes), args.seconds):
        index = max(0, len(passes) - 1)
        passes.append(worker(args.workload, args.seed, index, 0, started))
    problems = compare_counters("pass 0 and its repeat",
                                passes[0]["counters"], passes[1]["counters"])
    return passes, problems


def run_traced(args, started) -> tuple[list[dict], list[dict], list[str]]:
    plain: list[dict] = []
    traced: list[dict] = []
    problems: list[str] = []
    t0 = time.perf_counter()
    while not traced or more_time(t0, len(traced), args.seconds):
        k = len(traced)
        plain.append(worker(args.workload, args.seed, k, 0, started))
        traced.append(worker(args.workload, args.seed, k, 1, started))
        problems += compare_counters(f"untraced vs traced pass {k}",
                                     plain[-1]["counters"],
                                     traced[-1]["counters"])
    return plain, traced, problems


def outcome(results: list[dict], problems: list[str]) -> tuple[int, int]:
    attempted = sum(r["ops"] + r["checks"] for r in results) + len(problems)
    failed = sum(r["failed_ops"] + r["failed_checks"] for r in results)
    return attempted, failed + len(problems)


def report_failures(results: list[dict], problems: list[str]) -> None:
    shown = 0
    for i, r in enumerate(results):
        for f in r["failures"]:
            if shown < 20:
                print(f"FAIL worker {i} op {f['op']} [{f['label']}]: {f['error']}")
            shown += 1
    for p in problems:
        print(f"FAIL {p}")


def end_to_end(args, timed: list[dict]) -> dict:
    lat = {k: [v for r in timed for v in r["latency_ms"][k]]
           for k in timed[0]["latency_ms"]}
    run_ms = lat[RUN_OP[args.workload]]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in timed), "s"),
        "verdict_s": (statistics.fmean(r["verdict_s"] for r in timed), "s"),
        "run_ms.p50": (statistics.median(run_ms), "ms"),
        "run_ms.p99": (percentile(run_ms, 99), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed),
                        "MB"),
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(timed)} passes"
          f" (pass 0 twice), one process, one thread, closed loop;"
          f" times in reference seconds")
    show("setup_s", metrics["setup_s"][0], "s",
         f"median of {len(timed)} worker set-ups")
    show("verdict_s", metrics["verdict_s"][0], "s",
         f"mean of {len(timed)} passes; wall median"
         f" {statistics.median(r['wall_verdict_s'] for r in timed):.4f} s")
    for kind, q in (("play", 99), ("case", 99), ("search", 90)):
        if lat[kind]:
            show_latency(f"{kind}_ms", lat[kind], q)
    show("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", "median of passes")
    print(f"run_ms is {RUN_OP[args.workload]}_ms on this workload;"
          f" work counters of pass 0: " + ", ".join(
              f"{k}={v}" for k, v in sorted(timed[0]["counters"].items())))
    print(f"{sum(r['readjudicated'] for r in timed)} transcripts"
          f" re-adjudicated by oracle.oracle_run after the timed passes")
    return metrics


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Per-pass means over the traced passes, in wall seconds."""
    sys.path.insert(0, str(HERE))
    import spans
    n = len(traced)

    def mean(get) -> float:
        return sum(get(r) for r in traced) / n

    unhooked = sorted({u for r in traced for u in r["layers"]["unhooked"]})
    for name in unhooked:
        print(f"UNHOOKED {name}: it no longer resolves, so it has no metrics")
    metrics = {}
    for name in spans.HOOKS:
        if name not in unhooked:
            metrics[f"{name}.calls"] = (
                mean(lambda r: r["layers"]["calls"].get(name, 0)), "count")
            metrics[f"{name}.self_s"] = (
                mean(lambda r: r["layers"]["self_s"].get(name, 0.0)), "s")
    for name, unit in spans.DERIVED.items():
        metrics[name] = (mean(lambda r: r["layers"]["derived"][name]), unit)
    for key in WORK_COUNTERS:
        metrics[f"work.{key}"] = (mean(lambda r: r["counters"].get(key, 0)),
                                  "count")
    overhead = statistics.median(t["verdict_s"] - u["verdict_s"]
                                 for u, t in zip(plain, traced))
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.passes"] = (n, "count")
    metrics["trace.unhooked"] = (len(unhooked), "count")

    total_self = mean(lambda r: sum(r["layers"]["self_s"].values()))
    print(f"{n} traced passes, each after the same pass untraced; per-pass"
          f" means of {mean(lambda r: r['layers']['spans']):.0f} spans;"
          f" traced verdict_s exceeds untraced by {overhead:.4f} s")
    print(f"{'function':<34} {'calls':>14} {'self_s':>10} {'share':>7}")
    for name in sorted(spans.HOOKS, key=lambda h: -metrics.get(
            f"{h}.self_s", (0.0,))[0]):
        if name in unhooked:
            continue
        self_s = metrics[f"{name}.self_s"][0]
        print(f"{name:<34} {metrics[f'{name}.calls'][0]:14.1f} {self_s:10.4f}"
              f" {100 * self_s / total_self if total_self else 0.0:6.1f}%")
    for name in list(spans.DERIVED) + [f"work.{k}" for k in WORK_COUNTERS]:
        show(name, *metrics[name])
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    if not (ROOT / "src" / "clgames" / "__init__.py").is_file():
        print(f"engine sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            plain, traced, problems = run_traced(args, started)
            results = plain + traced
        else:
            results, problems = run_untraced(args, started)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = outcome(results, problems)
    report_failures(results, problems)
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(args, results)
    show("fail_ratio", failed / attempted, "ratio",
         f"{failed} failed of {attempted} ops and checks")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
