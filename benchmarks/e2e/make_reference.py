"""Re-baseline the batch workloads' committed output references.

Usage (from the repository root)::

    python3 benchmarks/e2e/make_reference.py [dse_full] [paper_model]

Runs one cold run of each named batch workload (both by default) and
writes ``benchmarks/e2e/reference/<workload>.json``: the golden numbers of
its outputs and, for ``paper_model``, the names of the ``repro check``
diagnostics, all of which must pass.  Every benchmark run compares its
outputs with these files and fails on any drift.

Re-baseline only for a change that moves a paper number on purpose, and
name the moved quantities in that change's description; ``repro report
--compare`` shows them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
from checks import REFERENCE_DIR


def make_reference(workload: str, workdir: Path) -> Path:
    runner = run.Run(workload, 0, 0.0, False, workdir / workload)
    directory, env = runner.op_dir("reference")
    result_path = directory / "result.json"
    subprocess.run(
        [sys.executable, str(run.HERE / "child.py"), "batch", workload, str(result_path)],
        cwd=directory,
        env=env,
        stdout=subprocess.DEVNULL,
        check=True,
    )
    result = json.loads(result_path.read_text())
    reference = {"workload": workload, "golden": result["golden"]}
    if "checks" in result:
        failing = [name for name, ok in result["checks"].items() if not ok]
        if failing:
            raise SystemExit(f"refusing to baseline failing checks: {failing}")
        reference["checks"] = sorted(result["checks"])
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return path


def main(argv: list) -> int:
    workloads = argv or ["dse_full", "paper_model"]
    workdir = run.HERE / ".work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for workload in workloads:
            path = make_reference(workload, workdir)
            print(f"wrote {path.relative_to(run.ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
