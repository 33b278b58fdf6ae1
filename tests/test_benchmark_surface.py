"""The engine names the benchmark resolves still exist.

`perfbench/spans.py` hooks engine functions by name, and `BENCHMARK.json`
lists the per-layer metrics a traced run emits for them.  A hooked name
that no longer resolves is skipped by the traced run with an UNHOOKED line,
and its metrics go missing, so a rename or removal in `src/` must be made
together with the benchmark.  `perfbench/` is only read here.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import spans  # noqa: E402


def test_every_hooked_name_resolves():
    assert [name for name in spans.HOOKS if not spans.resolve(name)] == []


def test_every_per_layer_metric_is_one_a_traced_run_emits():
    emitted = {f"{hook}.{kind}" for hook in spans.HOOKS
               for kind in ("calls", "self_s")} | set(spans.DERIVED)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names
    assert [name for name in names if name not in emitted
            and not name.startswith(("work.", "trace."))] == []
