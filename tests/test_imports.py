"""Importing the engine stays cheap: every process starts cold (each CLI
run, each suite, each benchmark worker), so no engine module may pull in
the heavy introspection modules or `traceback`, which only a faulting
play needs and imports itself."""

import os
import pkgutil
import subprocess
import sys

import clgames

HEAVY = {"dataclasses", "inspect", "ast", "dis", "traceback"}


def _loaded(statement: str) -> set[str]:
    """The modules loaded after `statement`, in a fresh interpreter."""
    code = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(clgames.__path__[0]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_importing_every_engine_module_loads_no_heavy_module():
    names = [m.name for m in pkgutil.iter_modules(clgames.__path__)
             if m.name != "__main__"]            # __main__ runs the CLI
    assert "cli" in names and "games" in names
    engine = _loaded("\n".join(f"import clgames.{name}" for name in names))
    assert {f"clgames.{name}" for name in names} <= engine
    assert not (engine - _loaded("pass")) & HEAVY
