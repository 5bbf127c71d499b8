"""Run-ledger provenance: manifests, golden-number drift, run reports.

The paper's conclusions are a chain of fitted numbers, so a reproduction
is only trustworthy if every emitted artifact can say exactly which code,
config, inputs, and timings produced it — and whether those numbers moved
since the last run.  Three cooperating modules:

* :mod:`repro.provenance.manifest` — a versioned :class:`RunManifest`
  (git SHA + dirty flag, interpreter/numpy/platform versions, CLI argv,
  model-parameter and input-dataset content hashes, wall-clock, the
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

Import from the module you need: the package re-exports nothing, so a
run that only captures a manifest never loads the comparator or the
renderer.
"""
