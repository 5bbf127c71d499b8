"""Machine-readable export of every regenerated paper artifact.

``export_all`` writes one JSON file per table/figure into a directory, so
plots and downstream analyses can consume the reproduction without
importing the library.

Every artifact file is a provenance-stamped envelope::

    {"schema_version": 1, "manifest": {...}, "data": <payload>}

where ``manifest`` is the run's :meth:`RunManifest.artifact_block` — run
id, git SHA + dirty flag, environment versions, config/input content
hashes, and the metrics snapshot at write time — so any artifact can be
joined back to its ledger entry (``runs/<run_id>/manifest.json``) and
audited.  The full manifest additionally records the run's golden-number
scalars, which :mod:`repro.provenance.drift` compares across runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Union

from repro.cmos.model import CmosPotentialModel
from repro.dfg.analysis import analyze
from repro.errors import ValidationError
from repro.obs.log import get_logger, kv
from repro.obs.trace import span
from repro.reporting import figures, tables

logger = get_logger("reporting.export")

PathLike = Union[str, Path]


def _jsonable(value):
    """Coerce figure payloads (tuple keys, dataclass-free dicts) to JSON."""
    if isinstance(value, dict):
        return {
            (k if isinstance(k, str) else repr(k)): _jsonable(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and value != value:  # NaN
        return None
    return value


def _table2_payload():
    from repro.workloads import WORKLOADS

    return {
        workload.abbrev: tables.table2_concept_limits(
            analyze(workload.build().dfg)
        )
        for workload in WORKLOADS
    }


def tech_artifact_builders(tech: str) -> Dict[str, Callable[[], object]]:
    """Name -> builder for the per-technology artifact family of *tech*.

    Five artifacts per registered backend: the re-run Figs 15-16 wall
    projections (``fig15_16_<tech>``), the effective Table V envelope
    (``table5_<tech>``), the per-study CSR decomposition
    (``csr_<tech>``), the full scenario payload (``tech_<tech>``), and
    the cross-tech delta vs. the ``cmos`` oracle
    (``tech_delta_<tech>``).
    """
    from repro.tech import scenarios

    return {
        f"fig15_16_{tech}": lambda: figures.fig15_16_tech_projections(tech),
        f"table5_{tech}": lambda: scenarios.table5_rows(tech),
        f"csr_{tech}": lambda: scenarios.csr_rows(tech),
        f"tech_{tech}": lambda: scenarios.scenario_payload(tech),
        f"tech_delta_{tech}": lambda: scenarios.delta_payload(tech),
    }


def artifact_registry(
    model: Optional[CmosPotentialModel] = None,
    engine=None,
) -> Dict[str, Callable[[], object]]:
    """The single registry of every resolvable artifact name.

    Base paper artifacts plus the per-technology families of every
    registered backend (``cmos`` excluded — its per-tech numbers *are*
    the base ``fig15_16``/``table5`` artifacts).  ``--only`` selections
    and unknown-name error listings resolve against this registry.
    """
    from repro.tech import backend_names

    registry = artifact_builders(model, engine=engine)
    for tech in backend_names():
        if tech != "cmos":
            registry.update(tech_artifact_builders(tech))
    return registry


def artifact_builders(
    model: Optional[CmosPotentialModel] = None,
    engine=None,
    tech: Optional[str] = None,
) -> Dict[str, Callable[[], object]]:
    """Name -> builder for the default export set of one technology.

    With *tech* ``None`` or ``"cmos"`` this is the base paper artifact
    set, unchanged — ``repro export --tech cmos`` stays bit-identical to
    a plain ``repro export``.  Any other registered backend selects that
    technology's artifact family (see :func:`tech_artifact_builders`).

    The DSE artifacts (Figs 13-14) sweep the paper's full Table III grid.
    *engine* (a :class:`repro.accel.engine.SweepEngine`) runs those two
    artifacts sharded across worker processes with the persistent cache.
    """
    if tech is not None and tech != "cmos":
        from repro.tech import get_backend

        return tech_artifact_builders(get_backend(tech).name)
    cmos = model if model is not None else CmosPotentialModel.paper()
    return {
        "table1": tables.table1_specialization_concepts,
        "table2": _table2_payload,
        "table3": tables.table3_sweep_parameters,
        "table4": tables.table4_applications,
        "table5": tables.table5_wall_parameters,
        "fig1": lambda: figures.fig1_bitcoin_evolution(cmos),
        "fig3a": figures.fig3a_device_scaling,
        "fig3b": lambda: figures.fig3b_transistor_density(cmos),
        "fig3c": lambda: figures.fig3c_tdp_budget(cmos),
        "fig3d": lambda: figures.fig3d_chip_gains(cmos),
        "fig4": lambda: figures.fig4_video_decoders(cmos),
        "fig5": lambda: figures.fig5_gpu_frame_rates(cmos),
        "fig6_7": lambda: figures.fig6_7_architecture_scaling(cmos),
        "fig8": lambda: figures.fig8_fpga_cnn(cmos),
        "fig9": lambda: figures.fig9_bitcoin_platforms(cmos),
        "fig13": lambda: figures.fig13_stencil_sweep(engine=engine),
        "fig14": lambda: figures.fig14_gain_attribution(engine=engine),
        "fig15_16": lambda: figures.fig15_16_projections(cmos),
    }


def _build_payloads(
    names: Sequence[str],
    builders: Dict[str, Callable[[], object]],
) -> Dict[str, object]:
    unknown = sorted(set(names) - set(builders))
    if unknown:
        # ValidationError so the CLI reports `error: ...` and exits 2
        # instead of dumping a traceback on a typo in --only.
        raise ValidationError(
            f"unknown artifact{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(repr(n) for n in unknown)}; "
            f"valid names: {', '.join(sorted(builders))}"
        )
    payloads: Dict[str, object] = {}
    for name in names:
        builder = builders[name]
        with span("export.artifact", artifact=name):
            payloads[name] = _jsonable(builder())
    return payloads


def _write_artifacts(
    payloads: Dict[str, object],
    directory: Path,
    manifest,
) -> Dict[str, Path]:
    """Write provenance-stamped envelopes; one file per artifact."""
    from repro.provenance.manifest import SCHEMA_VERSION

    directory.mkdir(parents=True, exist_ok=True)
    block = manifest.artifact_block()
    paths: Dict[str, Path] = {}
    for name, payload in payloads.items():
        path = directory / f"{name}.json"
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "manifest": block,
            "data": payload,
        }
        with open(path, "w") as handle:
            json.dump(envelope, handle, indent=2)
        paths[name] = path
        logger.info(
            "export.wrote %s",
            kv(artifact=name, path=str(path), run_id=manifest.run_id),
        )
    return paths


def _finish_manifest(manifest, payloads: Dict[str, object], engine) -> None:
    """Fold golden numbers, metrics, and engine stats into *manifest*."""
    from repro.obs.metrics import metrics
    from repro.provenance.drift import golden_numbers

    manifest.golden.update(golden_numbers(payloads))
    manifest.metrics = metrics().snapshot()
    if engine is not None:
        manifest.engine = engine.provenance()


def export_all(
    directory: PathLike,
    model: Optional[CmosPotentialModel] = None,
    names: Optional[Sequence[str]] = None,
    engine=None,
    manifest=None,
    ledger=None,
    tech: Optional[str] = None,
) -> Dict[str, Path]:
    """Regenerate and write every (or the named) artifacts.

    *tech* selects the default artifact set: ``None``/``"cmos"`` exports
    the base paper artifacts (bit-identical either way), any other
    registered backend exports that technology's per-tech family.
    Explicit *names* always resolve against the full
    :func:`artifact_registry`, so e.g. ``--only fig15_16_tfet`` works
    without ``--tech``.

    *manifest* is the run's :class:`~repro.provenance.manifest.RunManifest`;
    it is completed with the export's golden numbers, metrics snapshot, and
    engine stats and stamped into each artifact envelope.  A manifest
    passed in is the caller's to record (the CLI records it once, with its
    stages).  When none is given, one is captured here and recorded in the
    run *ledger* (default ledger unless one is passed; recording is
    best-effort — an unwritable ledger never fails the export).
    """
    from repro.provenance.manifest import RunLedger, capture

    registry = artifact_registry(model, engine=engine)
    if names is not None:
        selected = list(names)
    else:
        selected = sorted(artifact_builders(model, engine=engine, tech=tech))
    if not selected:
        # e.g. `--only ,` — an accidentally empty selection should not
        # silently export nothing.
        raise ValidationError(
            "no artifacts selected; valid names: "
            + ", ".join(sorted(registry))
        )
    captured = manifest is None
    if captured:
        manifest = capture("export", model=model, tech=tech)
    payloads = _build_payloads(selected, registry)
    _finish_manifest(manifest, payloads, engine)
    paths = _write_artifacts(payloads, Path(directory), manifest)
    if captured:
        try:
            (ledger if ledger is not None else RunLedger()).record(manifest)
        except OSError as exc:
            logger.warning(
                "ledger.record_failed %s",
                kv(run_id=manifest.run_id, error=str(exc)),
            )
    return paths
