"""One pass of one workload in a fresh interpreter; prints a JSON result.

    python3 perfbench/worker.py --workload W --seed N --pass K --trace 0|1

``run.py`` starts one worker per pass, so no pass inherits caches warmed by
another, just as each ``clgames verify`` run starts cold.  Set-up (importing
the engine and building the pass's inputs) is timed apart from the pass.
Every time it reports is in reference seconds (see pace.py).
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

from pace import Pace

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    pace = Pace()
    pace.tick(force=True)
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import spans
    setup, run = workloads.WORKLOADS[args.workload]
    inputs = setup(random.Random(f"{args.workload}/{args.seed}/{args.pass_index}"))
    t1 = time.perf_counter()
    pace.tick(force=True)

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    p = workloads.Pass(pace, tracer)
    t2 = time.perf_counter()
    run(inputs, p)
    t3 = time.perf_counter()
    pace.tick(force=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.summary()

    readjudicated = workloads.readjudicate(p)
    workloads.check_refutation(p)
    print(json.dumps({
        "engine": workloads.cl2.__file__,
        "setup_s": pace.reference_seconds(t0, t1),
        "verdict_s": pace.reference_seconds(t2, t3),
        "wall_setup_s": t1 - t0,
        "wall_verdict_s": t3 - t2,
        "peak_rss_mb": peak_rss_mb,
        "latency_ms": p.latency_ms(),
        "ops": p.ops,
        "checks": p.checks,
        "readjudicated": readjudicated,
        "counters": dict(p.counters),
        "failures": p.failures,
        "failed_ops": len({f["op"] for f in p.failures if f["op"] >= 0}),
        "failed_checks": sum(f["op"] < 0 for f in p.failures),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
