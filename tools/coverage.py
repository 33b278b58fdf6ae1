"""Line coverage of `src/clgames` under a pytest run, standard library only.

    python tools/coverage.py [PYTEST ARGS...]

runs pytest (by default the whole Tier-1 suite, `tests/`) from the
repository root with a `sys.settrace` hook that traces only frames whose
code lives in `src/clgames`, then prints, file by file, the executable
lines that never ran.  A file's executable lines are read from the
`co_lines()` of the code objects nested in it; module-level lines run at
import and are left out.  Tracing makes the run about four times slower
than plain pytest.  Exit status: pytest's.
"""

from __future__ import annotations

import os
import sys
import types
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "clgames")


def executable_lines(path: str) -> set[int]:
    """Lines of the code nested in the module at `path` (functions, class
    bodies and the code inside them); the module's own lines are not."""
    with open(path, encoding="utf-8") as fh:
        module = compile(fh.read(), path, "exec")
    lines: set[int] = set()
    stack = [c for c in module.co_consts if isinstance(c, types.CodeType)]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with `args` and return its exit status and the lines of
    `src/clgames` that ran, by file."""
    import pytest

    ran: dict[str, set[int]] = defaultdict(set)
    inside: dict[types.CodeType, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        keep = inside.get(code)
        if keep is None:
            keep = inside[code] = code.co_filename.startswith(PACKAGE)
        if not keep:
            return None
        ran[code.co_filename].add(frame.f_lineno)
        return local

    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    status, ran = traced_pytest(argv or ["-q", "-p", "no:cacheprovider",
                                         "tests"])
    total = hit = 0
    print()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        unrun = sorted(lines - ran.get(path, set()))
        total += len(lines)
        hit += len(lines) - len(unrun)
        print(f"{name}: {len(lines) - len(unrun)}/{len(lines)} lines ran",
              end="")
        print(f"; never: {_ranges(unrun)}" if unrun else "")
    print(f"total: {hit}/{total} lines ran"
          f" ({100.0 * hit / max(total, 1):.1f}%)")
    return status


def _ranges(lines: list[int]) -> str:
    """`[1, 2, 3, 7]` as `1-3, 7`."""
    out: list[list[int]] = []
    for n in lines:
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
