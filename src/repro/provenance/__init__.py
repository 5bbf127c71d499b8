"""Run-ledger provenance: manifests, golden-number drift, run reports.

The paper's conclusions are a chain of fitted numbers, so a reproduction
is only trustworthy if every emitted artifact can say exactly which code,
config, inputs, and timings produced it — and whether those numbers moved
since the last run.  Three cooperating modules:

* :mod:`repro.provenance.manifest` — a versioned :class:`RunManifest`
  (git SHA + dirty flag, interpreter/numpy/platform versions, CLI argv,
  model-parameter and input-datasheet content hashes, wall-clock, the
  observability layer's metrics snapshot and per-stage self-time table)
  stamped into every exported artifact and persisted by the append-only
  :class:`RunLedger` as ``runs/<run_id>/manifest.json``.
* :mod:`repro.provenance.drift` — diffs two runs' golden numbers (the
  Table III-V and Fig 3/13-16 scalars) under per-quantity tolerances and
  threshold-flags perf regressions, producing a typed
  :class:`DriftReport`; refuses runs recorded under a different
  :data:`SCHEMA_VERSION` with a ``ValidationError``.
* :mod:`repro.provenance.report` — renders a single-run summary or a
  two-run drift report as markdown/HTML (the ``repro report`` command).
"""

from repro.provenance.drift import (
    DriftReport,
    PerfFlag,
    QuantityDrift,
    Tolerance,
    compare_bench_entries,
    compare_runs,
    golden_numbers,
)
from repro.provenance.manifest import (
    SCHEMA_VERSION,
    RunLedger,
    RunManifest,
    capture,
    default_runs_dir,
)
from repro.provenance.report import (
    format_drift_report,
    format_run_report,
    render_html,
    render_markdown,
)

__all__ = [
    "SCHEMA_VERSION",
    "DriftReport",
    "PerfFlag",
    "QuantityDrift",
    "RunLedger",
    "RunManifest",
    "Tolerance",
    "capture",
    "compare_bench_entries",
    "compare_runs",
    "default_runs_dir",
    "format_drift_report",
    "format_run_report",
    "golden_numbers",
    "render_html",
    "render_markdown",
]
