"""``repro check``: numerical self-diagnostics over the embedded datasets.

Re-runs every fit the library ships, re-validates the model invariants the
paper's argument rests on, and exercises the DSE engine's parallel
equivalence on a tiny grid — reporting pass/fail per subsystem.  This is
the command to run after touching any model code or dataset: it answers
"are the numbers still trustworthy?" in a few seconds, without the full
test suite.

Checks, by subsystem:

* **cmos** — the Fig 3b density law and Fig 3c per-era TDP laws refit from
  the bundled chip population with finite, positive coefficients, and the
  Fig 3d gains model stays finite over a node/area/TDP grid.
* **csr** — the Eq 2 invariant ``reported == specialization * cmos`` holds
  across every case-study series, shares stay finite near ``reported = 1``,
  and the Eq 3/4 GPU relation matrix is antisymmetric in log space.
* **wall** — :func:`repro.wall.pareto.upper_frontier` returns a strictly
  increasing staircase for every domain scatter, every Fig 15/16 projection
  is finite, never regresses under the achieved frontier (the clamp
  contract), and reports headroom >= 1.
* **accel** — a ``jobs=1`` and a ``jobs=2`` engine sweep of the same tiny
  grid are bit-identical, the streaming Pareto accumulator agrees with
  the batch reference, and the vectorized batch evaluator reproduces the
  per-point scalar oracle exactly.
* **tech** — every registered technology backend produces finite,
  monotone-in-node density/TDP scaling surfaces, the ``cmos`` backend is
  bit-identical to the legacy ``CmosPotentialModel.paper()`` path, and
  every non-CMOS backend yields finite wall-shift deltas.  ``repro check
  --tech NAME`` restricts the per-backend checks to one backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import SelfCheckError

#: Relative tolerance for invariants that are exact up to float rounding.
_RTOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one self-diagnostic."""

    subsystem: str
    name: str
    ok: bool
    detail: str

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"[{status:>4}] {self.subsystem}/{self.name}: {self.detail}"

    def to_dict(self) -> dict:
        """JSON-safe view, recorded into the run manifest's check table."""
        return {
            "subsystem": self.subsystem,
            "name": self.name,
            "ok": self.ok,
            "detail": self.detail,
        }


def _ensure(condition: bool, message: str) -> None:
    if not condition:
        raise SelfCheckError(message)


def _run(
    results: List[CheckResult], subsystem: str, name: str, fn: Callable[[], str]
) -> None:
    try:
        detail = fn()
        results.append(CheckResult(subsystem, name, True, detail))
    except Exception as exc:  # noqa: BLE001 - a diagnostic must not abort
        results.append(
            CheckResult(
                subsystem, name, False, f"{type(exc).__name__}: {exc}"
            )
        )


# -- cmos ---------------------------------------------------------------------


def _check_density_refit() -> str:
    import math

    from repro.cmos.model import CmosPotentialModel

    fit = CmosPotentialModel.reference().density_fit
    _ensure(fit.n_points >= 2, f"refit used only {fit.n_points} chips")
    _ensure(
        math.isfinite(fit.r2) and 0.0 < fit.r2 <= 1.0,
        f"log-space R^2 out of range: {fit.r2!r}",
    )
    return fit.describe()


def _check_tdp_refit() -> str:
    from repro.cmos.model import CmosPotentialModel

    model = CmosPotentialModel.reference().tdp_model
    # TdpFit.__post_init__ enforces finite positive coefficients; surviving
    # construction plus a positive budget at a nominal envelope is the check.
    for fit in model.fits:
        _ensure(
            fit.budget_product(100.0) > 0.0,
            f"era {fit.era.name}: non-positive budget at 100W",
        )
    return f"{len(model.fits)} era laws refit"


def _check_gains_finite() -> str:
    import math

    from repro.cmos.model import CmosPotentialModel

    model = CmosPotentialModel.paper()
    evaluated = 0
    for node in (45.0, 22.0, 10.0, 5.0):
        for area in (10.0, 100.0, 800.0):
            for tdp in (None, 5.0, 250.0):
                gains = model.evaluate(node, 1000.0, area_mm2=area, tdp_w=tdp)
                for metric in (
                    "throughput", "energy_efficiency", "throughput_per_area"
                ):
                    value = gains.metric(metric)
                    _ensure(
                        math.isfinite(value) and value > 0.0,
                        f"{metric} at {node:g}nm/{area:g}mm^2/"
                        f"TDP={tdp!r}: {value!r}",
                    )
                evaluated += 1
    return f"{evaluated} grid points finite and positive"


# -- csr ----------------------------------------------------------------------


def _study_series(model):
    from repro.studies import bitcoin, fpga_cnn, gpu_graphics, video_decoders

    for study in (
        video_decoders.study(),
        gpu_graphics.study(),
        fpga_cnn.study("alexnet"),
        bitcoin.asic_study(),
    ):
        yield study.name, study.performance_series(model)


def _check_eq2_invariant() -> str:
    import math

    from repro.cmos.model import CmosPotentialModel

    model = CmosPotentialModel.paper()
    checked = 0
    for name, series in _study_series(model):
        for point in series:
            _ensure(
                math.isclose(
                    point.gain, point.csr * point.physical, rel_tol=_RTOL
                ),
                f"{name}/{point.name}: reported {point.gain!r} != "
                f"csr {point.csr!r} * physical {point.physical!r}",
            )
            checked += 1
    return f"reported == specialization * cmos on {checked} chips"


def _check_share_boundary() -> str:
    import math

    from repro.csr.metric import GainDecomposition

    for reported in (1.0, 1.0 + 1e-12, 1.0 - 1e-12):
        d = GainDecomposition(
            reported=reported, specialization=reported, cmos=1.0
        )
        share = d.specialization_share
        _ensure(
            math.isfinite(share) and abs(share) <= 1.0,
            f"share near reported=1 unstable: {share!r} at {reported!r}",
        )
    return "log-share finite and bounded at reported ~ 1.0"


def _check_relation_matrix() -> str:
    import math

    from repro.cmos.model import CmosPotentialModel
    from repro.studies.gpu_graphics import architecture_relations

    matrix = architecture_relations(CmosPotentialModel.paper())
    pairs = 0
    for x in matrix.architectures:
        _ensure(matrix.gain(x, x) == 1.0, f"diagonal gain({x},{x}) != 1")
        for y in matrix.architectures:
            if x == y or not matrix.has(x, y):
                continue
            product = matrix.gain(x, y) * matrix.gain(y, x)
            _ensure(
                math.isclose(product, 1.0, rel_tol=_RTOL),
                f"antisymmetry broken: gain({x},{y}) * gain({y},{x}) "
                f"= {product!r}",
            )
            pairs += 1
    return f"{len(matrix.architectures)} architectures, {pairs} pairs antisymmetric"


# -- wall ---------------------------------------------------------------------


def _domain_scatter(domain: str, model):
    from repro.wall.limits import domain_study

    study = domain_study(domain)
    series = study.performance_series(model)
    base = study.chips[0].metric(study.performance_metric)
    return [(p.physical, p.gain * base) for p in series]


def _check_frontier_monotone() -> str:
    from repro.cmos.model import CmosPotentialModel
    from repro.errors import SelfCheckError as _err
    from repro.validate import require_monotone
    from repro.wall.limits import _limits
    from repro.wall.pareto import upper_frontier

    model = CmosPotentialModel.paper()
    domains = 0
    for domain in _limits():
        frontier = upper_frontier(_domain_scatter(domain, model))
        require_monotone(
            [p[0] for p in frontier], f"{domain} frontier x", error=_err
        )
        require_monotone(
            [p[1] for p in frontier], f"{domain} frontier y", error=_err
        )
        domains += 1
    return f"strictly increasing frontier in {domains} domains"


def _check_projections() -> str:
    import math

    from repro.cmos.model import CmosPotentialModel
    from repro.wall.limits import wall_report_all_domains

    model = CmosPotentialModel.paper()
    reports = wall_report_all_domains(model)
    for report in reports:
        for label, value in (
            ("projected_log", report.projected_log),
            ("projected_linear", report.projected_linear),
        ):
            _ensure(
                math.isfinite(value),
                f"{report.domain}/{report.metric}: {label} = {value!r}",
            )
            _ensure(
                value >= report.current_best * (1.0 - _RTOL),
                f"{report.domain}/{report.metric}: {label} {value!r} "
                f"regresses under achieved {report.current_best!r}",
            )
        low, high = report.headroom
        _ensure(
            math.isfinite(low) and math.isfinite(high) and 1.0 - _RTOL <= low <= high,
            f"{report.domain}/{report.metric}: headroom ({low!r}, {high!r})",
        )
    return f"{len(reports)} domain projections clamped, finite, headroom >= 1"


def _check_predict_clamp() -> str:
    from repro.cmos.model import CmosPotentialModel
    from repro.wall.limits import _limits
    from repro.wall.projection import fit_projections

    model = CmosPotentialModel.paper()
    fits = 0
    for domain in _limits():
        points = _domain_scatter(domain, model)
        for fit in fit_projections(points):
            # Querying *inside* the data range must never dip below the
            # achieved frontier — the historical clamp bug.
            lowest = min(x for x, _ in points)
            _ensure(
                fit.predict(lowest) >= fit.max_fitted_gain,
                f"{domain}/{fit.kind.value}: predict({lowest!r}) below "
                f"achieved {fit.max_fitted_gain!r}",
            )
            fits += 1
    return f"{fits} frontier fits never regress under the data"


# -- accel --------------------------------------------------------------------


def _tiny_sweep_inputs():
    from repro.accel.sweep import default_design_grid
    from repro.workloads import trd

    kernel = trd.build(n=16)
    grid = default_design_grid(
        nodes=(45.0, 5.0), partitions=(1, 4), simplifications=(1, 5)
    )
    return kernel, grid


def _check_engine_equivalence() -> str:
    from repro.accel.engine import SweepEngine

    kernel, grid = _tiny_sweep_inputs()
    serial = SweepEngine(jobs=1, use_cache=False).sweep(kernel, grid)
    parallel = SweepEngine(jobs=2, use_cache=False, chunk_size=2).sweep(
        kernel, grid
    )
    _ensure(
        serial.reports == parallel.reports,
        "jobs=1 and jobs=2 sweeps disagree on the same grid",
    )
    return f"jobs=1 == jobs=2 over {len(grid)} design points"


def _check_pareto_equivalence() -> str:
    from repro.accel.engine import SweepEngine
    from repro.accel.sweep import pareto_points

    kernel, grid = _tiny_sweep_inputs()
    result = SweepEngine(jobs=1, use_cache=False).sweep(kernel, grid)
    streaming = [
        (r.runtime_s, r.power_w) for r in result.pareto_frontier()
    ]
    batch = [
        (x, y) for x, y, _ in pareto_points(result.runtime_power_points())
    ]
    _ensure(
        streaming == batch,
        "streaming Pareto frontier disagrees with batch reference",
    )
    return f"streaming frontier == batch reference ({len(batch)} points)"


def _check_vectorized_equivalence() -> str:
    from repro.accel.batch import BatchEvaluator
    from repro.accel.power import evaluate_design

    kernel, grid = _tiny_sweep_inputs()
    batch = BatchEvaluator(kernel)
    reports = batch.evaluate(grid).reports()
    scalar = tuple(
        evaluate_design(kernel, design, batch.library) for design in grid
    )
    _ensure(
        reports == scalar,
        "vectorized batch evaluation disagrees with per-point evaluate_design",
    )
    looked = batch.cache.memo_hits + batch.cache.memo_misses
    _ensure(
        looked == len(grid),
        f"batch memo accounting covers {looked} of {len(grid)} design points",
    )
    return (
        f"vectorized == scalar over {len(grid)} design points "
        f"({batch.cache.memo_misses} unique structures)"
    )


# -- tech ---------------------------------------------------------------------


def _tech_backends(tech: Optional[str]):
    from repro.tech import backend_names, get_backend

    names = [tech] if tech else backend_names()
    return [get_backend(name) for name in names]


def _check_tech_surfaces(tech: Optional[str] = None) -> str:
    import math

    checked = []
    for backend in _tech_backends(tech):
        # Surfaces iterate SURFACE_NODES oldest-to-newest, so values must
        # rise monotonically as the node shrinks.
        density = list(backend.density_surface().values())
        _ensure(
            all(math.isfinite(v) and v > 0 for v in density),
            f"{backend.name}: density surface not finite/positive",
        )
        _ensure(
            all(b > a for a, b in zip(density, density[1:])),
            f"{backend.name}: density surface not strictly increasing in node",
        )
        tdp = list(backend.tdp_surface().values())
        _ensure(
            all(math.isfinite(v) and v > 0 for v in tdp),
            f"{backend.name}: TDP surface not finite/positive",
        )
        # Era budget laws are a step function across nodes: non-strict.
        _ensure(
            all(b >= a for a, b in zip(tdp, tdp[1:])),
            f"{backend.name}: TDP surface not monotone in node",
        )
        for node, point in backend.frequency_energy_surface().items():
            _ensure(
                all(math.isfinite(v) and v > 0 for v in point.values()),
                f"{backend.name}: device point at {node}nm not finite/positive",
            )
        checked.append(backend.name)
    return (
        f"{len(checked)} backend(s) ({', '.join(checked)}): density/TDP "
        "surfaces finite and monotone in node"
    )


def _check_tech_cmos_identity(tech: Optional[str] = None) -> str:
    from repro.cmos.model import CmosPotentialModel
    from repro.tech import get_backend

    backend_model = get_backend("cmos").model()
    legacy = CmosPotentialModel.paper()
    count = 0
    for node in (45.0, 28.0, 16.0, 7.0, 5.0):
        for area in (10.0, 100.0, 600.0):
            for tdp, cap_mode in (
                (None, "analytic"),
                (5.0, "analytic"),
                (100.0, "analytic"),
                (5.0, "empirical"),
                (100.0, "empirical"),
            ):
                ours = backend_model.evaluate(
                    node, 1000.0, area_mm2=area, tdp_w=tdp, cap_mode=cap_mode
                )
                theirs = legacy.evaluate(
                    node, 1000.0, area_mm2=area, tdp_w=tdp, cap_mode=cap_mode
                )
                _ensure(
                    ours == theirs,
                    f"cmos backend diverges from legacy model at node={node}, "
                    f"area={area}, tdp={tdp}, cap_mode={cap_mode}",
                )
                count += 1
    return (
        f"cmos backend bit-identical to CmosPotentialModel.paper() over "
        f"{count} evaluations"
    )


def _check_tech_wall_shift(tech: Optional[str] = None) -> str:
    import math

    from repro.tech.scenarios import delta_payload

    names = [
        backend.name
        for backend in _tech_backends(tech)
        if backend.name != "cmos"
    ]
    for name in names:
        payload = delta_payload(name)
        rows = payload["rows"]
        _ensure(
            len(rows) == 8,
            f"{name}: expected 8 wall-delta rows (4 domains x 2 metrics), "
            f"got {len(rows)}",
        )
        for row in rows:
            for key in (
                "physical_limit_ratio",
                "projected_log_ratio",
                "projected_linear_ratio",
            ):
                value = row[key]
                _ensure(
                    math.isfinite(value) and value > 0,
                    f"{name}: {row['domain']}/{row['metric']} {key} not "
                    f"finite/positive: {value!r}",
                )
    if not names:
        return "no non-CMOS backend selected; nothing to diff"
    return f"finite wall-shift deltas for {', '.join(names)}"


# -- driver -------------------------------------------------------------------

CHECKS = (
    ("cmos", "density-refit", _check_density_refit),
    ("cmos", "tdp-refit", _check_tdp_refit),
    ("cmos", "gains-finite", _check_gains_finite),
    ("csr", "eq2-invariant", _check_eq2_invariant),
    ("csr", "share-boundary", _check_share_boundary),
    ("csr", "relation-antisymmetry", _check_relation_matrix),
    ("wall", "frontier-monotone", _check_frontier_monotone),
    ("wall", "projection-contract", _check_projections),
    ("wall", "predict-clamp", _check_predict_clamp),
    ("accel", "engine-equivalence", _check_engine_equivalence),
    ("accel", "pareto-equivalence", _check_pareto_equivalence),
    ("accel", "vectorized-equivalence", _check_vectorized_equivalence),
    ("tech", "surfaces-monotone", _check_tech_surfaces),
    ("tech", "cmos-bit-identical", _check_tech_cmos_identity),
    ("tech", "wall-shift-finite", _check_tech_wall_shift),
)


def run_checks(
    subsystems: Optional[List[str]] = None,
    tech: Optional[str] = None,
) -> List[CheckResult]:
    """Run the self-diagnostics, optionally restricted to *subsystems*.

    *tech* restricts the per-backend ``tech`` checks to one registered
    technology backend (they cover every backend by default).
    """
    known = sorted({subsystem for subsystem, _, _ in CHECKS})
    if subsystems:
        unknown = sorted(set(subsystems) - set(known))
        if unknown:
            raise SelfCheckError(
                f"unknown subsystem(s) {unknown}; known: {known}"
            )
    if tech is not None:
        from repro.tech import get_backend

        get_backend(tech)  # fail fast with the valid-name listing
    results: List[CheckResult] = []
    for subsystem, name, fn in CHECKS:
        if subsystems and subsystem not in subsystems:
            continue
        if subsystem == "tech":
            _run(results, subsystem, name, lambda fn=fn: fn(tech))
        else:
            _run(results, subsystem, name, fn)
    return results


def render_results(results: List[CheckResult]) -> str:
    """Per-check lines plus a one-line summary, ``repro check``'s output."""
    lines = [result.describe() for result in results]
    failed = sum(1 for result in results if not result.ok)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed"
        + (f", {failed} FAILED" if failed else "")
    )
    return "\n".join(lines)
