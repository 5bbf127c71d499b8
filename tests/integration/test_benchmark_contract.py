"""The names ``benchmarks/e2e`` reads from ``repro`` must exist.

The end-to-end benchmark imports functions from ``repro`` by name, and
its traced mode wraps the entry points listed in ``layers.LAYERS``.  A
rename in ``src/`` breaks the benchmark, not any unit test, so this test
checks both in a fresh interpreter: wrapping patches functions for the
whole process, and the harness files are only read.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
HARNESS = ("child", "checks", "traffic", "run", "layers")

CHECK = """
import ast
import importlib
import importlib.util
import sys

e2e, files = sys.argv[1], sys.argv[2:]
sys.path.insert(0, e2e)
import layers

layers.LayerTracer().install()

names = []
for path in files:
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            names += [(path, node.module, alias.name) for alias in node.names]
missing = []
for path, module_name, name in names:
    module = importlib.import_module(module_name)
    if not hasattr(module, name) and importlib.util.find_spec(
        module_name + "." + name
    ) is None:
        missing.append(path + ": from " + module_name + " import " + name)
print(len(names))
for line in missing:
    print("missing", line)
"""


def test_harness_imports_and_wraps_only_names_that_exist():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    files = [str(E2E / f"{name}.py") for name in HARNESS]
    result = subprocess.run(
        [sys.executable, "-c", CHECK, str(E2E)] + files,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    count, *missing = result.stdout.splitlines()
    assert int(count) > 0
    assert missing == []
