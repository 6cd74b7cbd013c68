"""What lives beside the package stays true to it: exports, README, benchmark scripts.

`perfbench/` imports coaldyn names directly and runs them, and the README's
Quickstart is meant to be pasted as it stands.  A deleted or renamed name
that one of them still reads fails here, in the suite, not first in a
benchmark run or for a reader who pastes the Quickstart.
"""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coaldyn

ROOT = Path(__file__).parents[1]
MODULES = ["coaldyn", *(f"coaldyn.{m.name}" for m in pkgutil.iter_modules(coaldyn.__path__))]


def run_python(args, cwd):
    """Run a Python process on this checkout's `src`, writing no bytecode into the checkout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    done = run_python(["-c", block], tmp_path)
    assert done.returncode == 0, done.stderr


def test_perfbench_imports_resolve():
    """Each name a `perfbench/` script imports from coaldyn exists there."""
    scripts = sorted((ROOT / "perfbench").glob("*.py"))
    assert scripts
    unresolved = []
    for script in scripts:
        for node in ast.walk(ast.parse(script.read_text(), str(script))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "coaldyn":
                module = importlib.import_module(node.module)
                unresolved += [f"{script.name}: {node.module}.{alias.name}"
                               for alias in node.names if not hasattr(module, alias.name)]
    assert not unresolved


def test_perfbench_scaling_runs_one_size(tmp_path):
    """`perfbench/scaling.py --one 40`: power and direct solves, `model.transitions`,
    the reference LU, `fitness_at`, the CSV writer and the list-of-triples SVG shade."""
    (tmp_path / "scripts").symlink_to(ROOT / "scripts")
    done = run_python([str(ROOT / "perfbench" / "scaling.py"), "--one", "40"], tmp_path)
    assert done.returncode == 0, done.stderr
    row = json.loads(done.stdout.strip().splitlines()[-1])
    assert row["z"] == 40 and row["states"] == 41 * 42 // 2 and row["power_iters"] > 0
    out = tmp_path / ".bench_out" / "scaling"
    assert (out / "stationary_z40.csv").stat().st_size > 0
    assert (out / "panel_z40.svg").read_text().startswith("<svg")
