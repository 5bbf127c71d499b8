"""Endpoint implementations for the serving layer.

Each handler is ``async def handler(app, request, **path_params)`` taking
the :class:`repro.serve.app.ServeApp` and a parsed
:class:`repro.serve.router.Request`; it returns a JSON-able payload (the
app wraps it into the provenance envelope) or a ready
:class:`~repro.serve.router.Response` for non-JSON bodies.

The query endpoints reuse the *same* builder functions as ``repro
export`` (:func:`repro.reporting.export.artifact_builders`, the study
objects, :func:`repro.wall.wall_sensitivity`, ...), so a served payload
is byte-for-byte the number set the offline artifact carries — the golden
parity the drift comparator checks in the test suite and CI.
"""

from __future__ import annotations

import os
import platform
import re
import time
from typing import Any, Dict, List, Mapping, Sequence

from repro.errors import ReproError
from repro.serve.router import HttpError, Request, Response
from repro.serve import jobs as jobmod

__all__ = [
    "register_internal_routes",
    "register_routes",
    "render_prometheus",
    "render_prometheus_multi",
]


# -- operational surface ------------------------------------------------------


async def healthz(app, request: Request) -> Dict[str, Any]:
    counts = app.jobs.counts()
    payload: Dict[str, Any] = {
        "status": "draining" if app.draining else "ok",
        "uptime_s": time.time() - app.started_unix,
        "inflight_requests": app.inflight,
        "jobs": counts,
        "batching": app.config.batching,
        "workloads": app.workload_names(),
        "inflight_cap": app.gate.max_inflight,
        "shed_requests": app.gate.shed,
    }
    if app.config.worker_index is not None:
        # The replica answering this probe — CI's kill-and-restart check
        # reads the pid here to target one worker and observe its
        # replacement come up.
        payload["worker"] = {"index": app.config.worker_index, "pid": os.getpid()}
    return payload


_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    return "repro_" + _PROM_BAD.sub("_", name)


def _histogram_series(entry: Mapping[str, object]) -> List[tuple]:
    """A histogram snapshot entry as cumulative ``(le, count)`` pairs.

    Only the sparse buckets actually hit are emitted (plus the mandatory
    ``+Inf`` terminator), with ``le`` set to each log-linear bucket's
    upper bound — cumulative counts, as the Prometheus histogram contract
    requires, so ``_bucket{le="+Inf"}`` always equals ``_count``.
    """
    import math

    from repro.obs.metrics import bucket_bounds

    buckets = entry.get("buckets") or {}
    pairs = sorted((int(k), int(v)) for k, v in buckets.items())  # type: ignore[union-attr]
    cumulative = 0
    series: List[tuple] = []
    for index, count in pairs:
        cumulative += count
        upper = bucket_bounds(index)[1]
        le = "+Inf" if math.isinf(upper) else f"{upper:.9g}"
        series.append((le, cumulative))
    if not series or series[-1][0] != "+Inf":
        series.append(("+Inf", cumulative))
    return series


def render_prometheus(snapshot: Mapping[str, Mapping[str, object]]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text format.

    Counters and gauges map directly; histograms become proper histogram
    families with cumulative ``_bucket{le="..."}`` series over the
    log-linear bucket bounds plus ``_sum`` and ``_count``.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry.get("type")
        prom = _prom_name(name)
        if kind == "counter":
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {int(entry.get('value', 0))}")
        elif kind == "gauge":
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {float(entry.get('value', 0.0)):g}")
        elif kind == "histogram":
            lines.append(f"# TYPE {prom} histogram")
            for le, cumulative in _histogram_series(entry):
                lines.append(f'{prom}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f"{prom}_sum {float(entry.get('sum', 0.0)):.9g}")
            lines.append(f"{prom}_count {int(entry.get('count', 0))}")
    return "\n".join(lines) + "\n"


def render_prometheus_multi(
    snapshots: Mapping[int, Mapping[str, Mapping[str, object]]]
) -> str:
    """Render per-worker snapshots with ``{worker="i"}`` series labels.

    *snapshots* maps worker index to that worker's
    :meth:`MetricsRegistry.snapshot`.  Each metric name gets one ``TYPE``
    line and one labeled series per worker that reported it, so a single
    ``/metrics`` scrape of any replica shows the whole fleet.
    """
    lines: List[str] = []
    names = sorted({name for snap in snapshots.values() for name in snap})
    for name in names:
        prom = _prom_name(name)
        kind = next(
            snap[name].get("type")
            for snap in snapshots.values()
            if name in snap
        )
        if kind == "counter":
            lines.append(f"# TYPE {prom} counter")
            for worker in sorted(snapshots):
                entry = snapshots[worker].get(name)
                if entry is not None:
                    lines.append(
                        f'{prom}{{worker="{worker}"}} '
                        f"{int(entry.get('value', 0))}"
                    )
        elif kind == "gauge":
            lines.append(f"# TYPE {prom} gauge")
            for worker in sorted(snapshots):
                entry = snapshots[worker].get(name)
                if entry is not None:
                    lines.append(
                        f'{prom}{{worker="{worker}"}} '
                        f"{float(entry.get('value', 0.0)):g}"
                    )
        elif kind == "histogram":
            lines.append(f"# TYPE {prom} histogram")
            for worker in sorted(snapshots):
                entry = snapshots[worker].get(name)
                if entry is None:
                    continue
                for le, cumulative in _histogram_series(entry):
                    lines.append(
                        f'{prom}_bucket{{worker="{worker}",le="{le}"}} '
                        f"{cumulative}"
                    )
                lines.append(
                    f'{prom}_sum{{worker="{worker}"}} '
                    f"{float(entry.get('sum', 0.0)):.9g}"
                )
                lines.append(
                    f'{prom}_count{{worker="{worker}"}} '
                    f"{int(entry.get('count', 0))}"
                )
    return "\n".join(lines) + "\n"


async def metrics_text(app, request: Request) -> Response:
    from repro.obs.metrics import metrics

    content_type = "text/plain; version=0.0.4; charset=utf-8"
    local = metrics().snapshot()
    if app.config.worker_index is None or not app.peers:
        # Single-process mode keeps the unlabeled format — existing
        # dashboards and the CI smoke greps parse it as-is.
        return Response.text(render_prometheus(local), content_type=content_type)
    snapshots: Dict[int, Mapping[str, Mapping[str, object]]] = {
        app.config.worker_index: local
    }
    for index in sorted(app.peers):
        try:
            status, data = await app.peer_request(
                index, "GET", "/internal/metrics"
            )
        except HttpError:
            continue  # peer mid-restart: report the workers we can reach
        if status == 200 and isinstance(data, dict):
            snapshots[int(data.get("worker", index))] = data.get("metrics", {})
    return Response.text(
        render_prometheus_multi(snapshots), content_type=content_type
    )


# -- flight recorder (debug surface) ------------------------------------------
#
# Ops-exempt like /metrics: an overloaded or draining server is exactly
# when operators need the recorder.  Fleet-merged like /sweeps — any
# replica answers for the whole fleet, skipping peers mid-restart.


def _bounded_n(request: Request, default: int, cap: int = 1000) -> int:
    n = request.param_int("n", default)
    if n is None or n < 1:
        raise HttpError(400, f"query parameter n={n!r} must be >= 1")
    return min(n, cap)


async def _peer_debug_rows(app, path: str, key: str) -> List[Dict[str, Any]]:
    """Gather one debug listing from every reachable peer."""
    rows: List[Dict[str, Any]] = []
    for index in sorted(app.peers):
        try:
            status, data = await app.peer_request(index, "GET", path)
        except HttpError:
            continue  # peer mid-restart: report the workers we can reach
        if status == 200 and isinstance(data, dict):
            rows.extend(data.get(key) or [])
    return rows


async def debug_requests(app, request: Request) -> Dict[str, Any]:
    """The newest ``n`` request records across the fleet (oldest first)."""
    n = _bounded_n(request, 50)
    rows = [r.to_dict() for r in app.recorder.tail(n)]
    if app.config.worker_index is not None and app.peers:
        rows.extend(
            await _peer_debug_rows(
                app, f"/internal/debug/requests?n={n}", "requests"
            )
        )
    rows.sort(key=lambda r: float(r.get("start_unix") or 0.0))
    return {
        "requests": rows[-n:],
        "capacity": app.recorder.capacity,
        "recorded": len(app.recorder),
    }


async def debug_slow(app, request: Request) -> Dict[str, Any]:
    """The ``n`` slowest retained records across the fleet, slowest first."""
    n = _bounded_n(request, 20)
    rows = [r.to_dict() for r in app.recorder.slowest(n)]
    if app.config.worker_index is not None and app.peers:
        rows.extend(
            await _peer_debug_rows(app, f"/internal/debug/slow?n={n}", "requests")
        )
    rows.sort(key=lambda r: float(r.get("duration_s") or 0.0), reverse=True)
    return {"requests": rows[:n]}


async def debug_trace(app, request: Request, trace_id: str) -> Dict[str, Any]:
    """Every retained record of one trace, stitched across the fleet.

    The response carries the raw records (each with its spans) plus a
    ready Chrome trace (``chrome_trace`` key) with per-worker process
    tracks and flow arrows over the loopback hops — save it to a file and
    open it in Perfetto.
    """
    from repro.serve.debug import chrome_trace

    records = [r.to_dict() for r in app.recorder.trace(trace_id)]
    if app.config.worker_index is not None and app.peers:
        records.extend(
            await _peer_debug_rows(
                app, f"/internal/debug/trace/{trace_id}", "records"
            )
        )
    if not records:
        raise HttpError(
            404,
            f"no records for trace {trace_id!r} (the flight recorder keeps "
            f"the newest {app.recorder.capacity} requests per worker)",
        )
    records.sort(key=lambda r: float(r.get("start_unix") or 0.0))
    workers = sorted(
        {r.get("worker") for r in records if r.get("worker") is not None}
    )
    return {
        "trace_id": trace_id,
        "records": records,
        "span_count": sum(len(r.get("spans") or []) for r in records),
        "workers": workers,
        "chrome_trace": chrome_trace(trace_id, records),
    }


async def version(app, request: Request) -> Dict[str, Any]:
    import repro

    return {
        "version": repro.__version__,
        "git": app.git,
        "schema_version": app.schema_version,
        "python": platform.python_version(),
    }


# -- artifacts (export parity) ------------------------------------------------


async def artifacts_index(app, request: Request) -> Dict[str, Any]:
    return {"artifacts": app.artifact_names()}


async def artifact(app, request: Request, name: str) -> Any:
    return await app.artifact_payload(name)


# -- technology backends ("does the wall move?") -------------------------------


def _tech_param(app, request: Request):
    """The validated ``?tech=`` backend, or ``None`` when absent/cmos.

    ``None`` keeps the legacy CMOS code path (and the response shape)
    byte-identical to a request without the parameter.
    """
    name = request.query.get("tech")
    if name is None or name == "cmos":
        return None
    return app.tech_backend(name)


async def tech_index(app, request: Request) -> Dict[str, Any]:
    """Every registered technology backend with parameters and hashes."""
    from repro.tech import backend_index

    return {"technologies": backend_index(), "baseline": "cmos"}


# -- CMOS model queries (Fig 3) -----------------------------------------------


async def cmos_gains(app, request: Request) -> Dict[str, Any]:
    """Physical chip gains at a node (the Fig 3d quantity, one point).

    Query parameters: ``node`` (required), ``frequency_mhz`` (default
    1000), ``area_mm2`` (default 100), ``tdp_w`` (optional — omitting it
    means an unconstrained power envelope), ``baseline_node`` (default
    45) for the normalisation corner, ``tech`` (optional — evaluate both
    chips under a registered technology backend's model instead of the
    fitted CMOS one; the response then carries a ``tech`` key).
    """
    node = request.param_float("node")
    if node is None:
        raise HttpError(400, "query parameter 'node' is required (e.g. node=5)")
    frequency = request.param_float("frequency_mhz", 1000.0)
    area = request.param_float("area_mm2", 100.0)
    tdp = request.param_float("tdp_w", None)
    baseline_node = request.param_float("baseline_node", 45.0)
    backend = _tech_param(app, request)

    def compute() -> Dict[str, Any]:
        model = app.model if backend is None else backend.model()
        gains = model.evaluate(node, frequency, area_mm2=area, tdp_w=tdp)
        base = model.evaluate(
            baseline_node, frequency, area_mm2=area, tdp_w=tdp
        )
        extra = {} if backend is None else {"tech": backend.name}
        return {
            **extra,
            "node_nm": gains.node_nm,
            "baseline_node_nm": base.node_nm,
            "frequency_mhz": frequency,
            "area_mm2": area,
            "tdp_w": tdp,
            "potential_transistors": gains.potential_transistors,
            "active_transistors": gains.active_transistors,
            "power_w": gains.power_w,
            "tdp_limited": gains.tdp_limited,
            "throughput_gain": gains.throughput / base.throughput,
            "energy_efficiency_gain": (
                gains.energy_efficiency / base.energy_efficiency
            ),
        }

    return await app.run_blocking(compute)


# -- case-study CSR series (Eqs 1-2) ------------------------------------------


async def csr_study(app, request: Request, study: str) -> Dict[str, Any]:
    """One case study's baseline-normalised CSR series and summary.

    ``?tech=<backend>`` re-decomposes the series under that technology's
    potential model (the counterfactual "what if these chips had been
    built in tech T"); without it the fitted CMOS model is used and the
    response is unchanged from earlier schema versions.
    """
    obj = app.study(study)
    backend = _tech_param(app, request)

    def compute() -> Dict[str, Any]:
        model = app.model if backend is None else backend.model()
        series = obj.performance_series(model)
        extra = {} if backend is None else {"tech": backend.name}
        return {
            **extra,
            "study": obj.name,
            "metric": series.metric,
            "baseline": series.baseline_name,
            "series": [
                {
                    "name": p.name,
                    "node_nm": p.node_nm,
                    "year": p.year,
                    "gain": p.gain,
                    "physical": p.physical,
                    "csr": p.csr,
                }
                for p in series
            ],
            "summary": obj.summary(model),
        }

    return await app.run_blocking(compute)


# -- wall projections and what-if (Eqs 5-6, Table V) --------------------------


async def wall_projections(app, request: Request) -> Any:
    """The Figs 15-16 projections — identical to the fig15_16 artifact.

    ``?tech=<backend>`` serves that technology's re-run projections
    instead (identical to the exported ``fig15_16_<backend>`` artifact),
    wrapped with the backend's name so responses are self-describing.
    """
    backend = _tech_param(app, request)
    if backend is None:
        return await app.artifact_payload("fig15_16")
    projections = await app.artifact_payload(f"fig15_16_{backend.name}")
    return {
        "tech": backend.name,
        "baseline": "cmos",
        "projections": projections,
    }


def _number(body: Mapping[str, Any], name: str, default: float) -> float:
    """Body field *name* as a float from a JSON number (not a bool); 400 otherwise."""
    value = body.get(name, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise HttpError(400, f"{name} must be a number, got {value!r}")
    return float(value)


def _boolean(body: Mapping[str, Any], name: str, default: bool) -> bool:
    """Body field *name* as a JSON boolean; 400 otherwise."""
    value = body.get(name, default)
    if not isinstance(value, bool):
        raise HttpError(400, f"{name} must be a boolean, got {value!r}")
    return value


async def wall_whatif(app, request: Request) -> Dict[str, Any]:
    """What-if: re-evaluate one domain's wall under scaled Table V limits.

    Body: ``{"domain": ..., "metric"?: "performance"|"efficiency",
    "die_scale"?: 1.0, "tdp_scale"?: 1.0, "frequency_scale"?: 1.0}``.
    Scales multiply the domain's Table V die size, power budget, and
    clock; the response carries the perturbed physical limit and headroom
    next to the unperturbed baseline.
    """
    body = request.json_object()
    domain = body.get("domain")
    from repro.wall.limits import _limits

    if domain not in _limits():
        raise HttpError(
            400,
            f"unknown domain {domain!r}",
            valid_domains=sorted(_limits()),
        )
    metric = body.get("metric", "performance")
    if metric not in ("performance", "efficiency"):
        raise HttpError(
            400,
            f"unknown metric {metric!r}",
            valid_metrics=["performance", "efficiency"],
        )
    scales = {}
    for key in ("die_scale", "tdp_scale", "frequency_scale"):
        value = _number(body, key, 1.0)
        if not (0.0 < value <= 100.0):
            raise HttpError(400, f"{key}={value!r} outside (0, 100]")
        scales[key] = value

    key = (
        "whatif", domain, metric,
        scales["die_scale"], scales["tdp_scale"], scales["frequency_scale"],
    )
    return await app.batched_whatif(key, {"domain": domain, "metric": metric, **scales})


def compute_whatif(app, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Blocking what-if evaluation (one perturbed wall point + baseline)."""
    from repro.wall import accelerator_wall, wall_sensitivity

    domain = params["domain"]
    metric = params["metric"]
    baseline = accelerator_wall(domain, app.model, metric)
    point = wall_sensitivity(
        domain,
        app.model,
        metric=metric,
        die_scales=(params["die_scale"],),
        tdp_scales=(params["tdp_scale"],),
        frequency_scales=(params["frequency_scale"],),
    )[0]
    low, high = baseline.headroom
    return {
        "domain": domain,
        "metric": metric,
        "scales": {
            "die": point.die_scale,
            "tdp": point.tdp_scale,
            "frequency": point.frequency_scale,
        },
        "baseline": {
            "physical_limit": baseline.physical_limit,
            "headroom_low": low,
            "headroom_high": high,
        },
        "scenario": {
            "physical_limit": point.physical_limit,
            "headroom_low": point.headroom_low,
            "headroom_high": point.headroom_high,
        },
    }


# -- DSE evaluation and attribution (Section VI) ------------------------------


def _design_params(body: Mapping[str, Any]) -> Dict[str, Any]:
    params = {
        "node_nm": _number(body, "node_nm", 45.0),
        "partition": body.get("partition", 1),
        "simplification": body.get("simplification", 1),
        "heterogeneity": _boolean(body, "heterogeneity", True),
    }
    for name in ("partition", "simplification"):
        if not isinstance(params[name], int) or isinstance(params[name], bool):
            raise HttpError(
                400, f"{name} must be an integer, got {params[name]!r}"
            )
    return params


async def evaluate(app, request: Request) -> Dict[str, Any]:
    """Evaluate one accelerator design point (micro-batched).

    Body: ``{"workload": "S3D", "node_nm": 5, "partition": 64,
    "simplification": 9, "heterogeneity": true}``.  Concurrent requests
    coalesce into one vectorized model call; identical concurrent
    payloads share a single evaluation.
    """
    body = request.json_object()
    workload = body.get("workload", "S3D")
    if not isinstance(workload, str):
        raise HttpError(400, f"workload must be a string, got {workload!r}")
    app.workload(workload)  # validate abbrev up front -> 400, not batch error
    params = _design_params(body)
    key = (
        "evaluate", workload.upper(), params["node_nm"],
        params["partition"], params["simplification"], params["heterogeneity"],
    )
    return await app.batched_evaluate(key, {"workload": workload, **params})


def compute_evaluate_batch(app, items: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Blocking evaluation of a batch of design-point requests.

    The batch is grouped by workload and each group runs through the
    vectorized array path (:meth:`ServeApp.batch_evaluator`), which shares
    the workload's schedule cache — design points with common structural
    parameters (partition, fusion window, pipeline latency) schedule once,
    and the per-point power math broadcasts as numpy columns.  Results are
    bit-identical to per-item ``evaluate_design`` and are returned in
    request order.
    """
    from repro.accel.design import DesignPoint

    designs: List[DesignPoint] = []
    for item in items:
        app.kernel(item["workload"])  # unknown workload -> 400 before math
        try:
            designs.append(
                DesignPoint(
                    node_nm=item["node_nm"],
                    partition=item["partition"],
                    simplification=item["simplification"],
                    heterogeneity=item["heterogeneity"],
                )
            )
        except ReproError as exc:
            raise HttpError(400, str(exc))

    groups: Dict[str, List[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(item["workload"].upper(), []).append(i)
    reports: List[Any] = [None] * len(items)
    for abbrev, indices in groups.items():
        evaluator = app.batch_evaluator(abbrev)
        batch = evaluator.evaluate([designs[i] for i in indices])
        for i, report in zip(indices, batch.reports()):
            reports[i] = report

    results: List[Dict[str, Any]] = []
    for design, report in zip(designs, reports):
        results.append(
            {
                "workload": report.kernel,
                "design": {
                    "node_nm": design.node_nm,
                    "partition": design.partition,
                    "simplification": design.simplification,
                    "heterogeneity": design.heterogeneity,
                },
                "runtime_s": report.runtime_s,
                "power_w": report.power_w,
                "energy_nj": report.energy_nj,
                "throughput_ops": report.throughput_ops,
                "energy_efficiency": report.energy_efficiency,
            }
        )
    return results


async def attribute(app, request: Request) -> Dict[str, Any]:
    """Fig 14 gain attribution for one workload.

    Body: ``{"workload": "FFT", "metric"?: "throughput", "node_nm"?: 5,
    "baseline_node_nm"?: 45}``.  Runs over the representative (fast)
    sweep subsets unless ``full`` is true.
    """
    body = request.json_object()
    workload = body.get("workload")
    if not isinstance(workload, str):
        raise HttpError(400, "body field 'workload' (string) is required")
    app.workload(workload)
    metric = body.get("metric", "throughput")
    if metric not in ("throughput", "energy_efficiency"):
        raise HttpError(
            400,
            f"unknown metric {metric!r}",
            valid_metrics=["throughput", "energy_efficiency"],
        )
    full = _boolean(body, "full", False)
    node_nm = _number(body, "node_nm", 5.0)
    baseline_node_nm = _number(body, "baseline_node_nm", 45.0)

    def compute() -> Dict[str, Any]:
        kernel = app.kernel(workload)
        partitions, simplifications = app.fast_subsets(full)
        (attribution,) = app.engine.attribute_all(
            [kernel],
            metric=metric,
            node_nm=node_nm,
            baseline_node_nm=baseline_node_nm,
            partitions=partitions,
            simplifications=simplifications,
        )
        return {
            "workload": kernel.name,
            "metric": metric,
            "total_gain": attribution.total_gain,
            "csr": attribution.csr,
            "shares": attribution.shares,
        }

    return await app.run_blocking(compute)


# -- background sweeps --------------------------------------------------------


async def sweeps_submit(app, request: Request) -> Any:
    """Submit a full sweep as a background job; returns the job id.

    Body: ``{"workload": "S3D", "nodes"?: [...], "partitions"?: [...],
    "simplifications"?: [...], "full"?: false}``.
    """
    body = request.json_object()
    workload = body.get("workload", "S3D")
    if not isinstance(workload, str):
        raise HttpError(400, f"workload must be a string, got {workload!r}")
    app.workload(workload)
    params: Dict[str, Any] = {"workload": workload, "full": _boolean(body, "full", False)}
    for name in ("nodes", "partitions", "simplifications"):
        values = body.get(name)
        if values is None:
            continue
        if not isinstance(values, list) or not values:
            raise HttpError(400, f"{name} must be a non-empty JSON array")
        params[name] = values
    try:
        job = app.jobs.submit("sweep", params)
    except jobmod.QueueFullError as exc:
        raise HttpError(503, str(exc), headers={"Retry-After": "1"})
    return Response.json(
        app.envelope({"job": job.to_dict(include_result=False)}), status=202
    )


async def sweeps_list(app, request: Request) -> Dict[str, Any]:
    jobs = [job.to_dict(include_result=False) for job in app.jobs.jobs()]
    counts = app.jobs.counts()
    for index in sorted(app.peers):
        try:
            status, data = await app.peer_request(index, "GET", "/internal/jobs")
        except HttpError:
            continue  # peer mid-restart: list the jobs we can reach
        if status != 200 or not isinstance(data, dict):
            continue
        jobs.extend(data.get("jobs") or [])
        for state, count in (data.get("counts") or {}).items():
            counts[state] = counts.get(state, 0) + int(count)
    jobs.sort(key=lambda job: job.get("submitted_unix") or 0.0)
    return {"jobs": jobs, "counts": counts}


def _job_or_404(app, job_id: str):
    try:
        return app.jobs.get(job_id)
    except jobmod.UnknownJobError:
        raise HttpError(
            404,
            f"no job {job_id!r} (settled jobs are evicted after "
            f"{app.jobs.history} entries)",
        )


def _cancel_or_409(app, job_id: str) -> Dict[str, Any]:
    """Cancel a local queued job; 409 when it already left ``queued``."""
    job = _job_or_404(app, job_id)
    was = job.status
    job = app.jobs.cancel(job_id)
    if job.status != jobmod.CANCELLED:
        raise HttpError(
            409,
            f"job {job_id!r} is {was}; only queued jobs can be cancelled",
            status_now=job.status,
        )
    return {"job": job.to_dict(include_result=False)}


async def _forward_job(app, method: str, job_id: str) -> Any:
    """Route a job poll/cancel to the worker that owns *job_id*.

    Returns ``None`` when the job is local (resolve it here); otherwise
    the owning peer's payload, with peer-side errors re-raised so the
    client sees the same 404/409 it would get from the owner directly.
    """
    owner = jobmod.job_owner(job_id)
    if (
        owner is None
        or owner == app.config.worker_index
        or owner not in app.peers
    ):
        return None
    status, data = await app.peer_request(
        owner, method, f"/internal/jobs/{job_id}"
    )
    payload = data if isinstance(data, dict) else {}
    if status >= 400:
        detail = {
            key: value
            for key, value in payload.items()
            if key not in ("error", "status")
        }
        raise HttpError(
            status,
            payload.get("error", f"worker {owner} returned {status}"),
            **detail,
        )
    return payload


async def sweeps_get(app, request: Request, job_id: str) -> Dict[str, Any]:
    forwarded = await _forward_job(app, "GET", job_id)
    if forwarded is not None:
        return forwarded
    job = _job_or_404(app, job_id)
    return {"job": job.to_dict(include_result=True)}


async def sweeps_cancel(app, request: Request, job_id: str) -> Any:
    forwarded = await _forward_job(app, "DELETE", job_id)
    if forwarded is not None:
        return forwarded
    return _cancel_or_409(app, job_id)


# -- internal (worker-to-worker) surface --------------------------------------
#
# Served only on each worker's supervisor-owned loopback listener; raw
# JSON (no provenance envelope) because the caller is a sibling replica,
# not a client.


async def internal_metrics(app, request: Request) -> Dict[str, Any]:
    from repro.obs.metrics import metrics

    return {"worker": app.config.worker_index, "metrics": metrics().snapshot()}


async def internal_jobs(app, request: Request) -> Dict[str, Any]:
    return {
        "worker": app.config.worker_index,
        "jobs": [job.to_dict(include_result=False) for job in app.jobs.jobs()],
        "counts": app.jobs.counts(),
    }


async def internal_job(app, request: Request, job_id: str) -> Dict[str, Any]:
    job = _job_or_404(app, job_id)
    return {"job": job.to_dict(include_result=True)}


async def internal_job_cancel(app, request: Request, job_id: str) -> Dict[str, Any]:
    return _cancel_or_409(app, job_id)


async def internal_debug_requests(app, request: Request) -> Dict[str, Any]:
    n = _bounded_n(request, 50)
    return {
        "worker": app.config.worker_index,
        "requests": [r.to_dict() for r in app.recorder.tail(n)],
    }


async def internal_debug_slow(app, request: Request) -> Dict[str, Any]:
    n = _bounded_n(request, 20)
    return {
        "worker": app.config.worker_index,
        "requests": [r.to_dict() for r in app.recorder.slowest(n)],
    }


async def internal_debug_trace(
    app, request: Request, trace_id: str
) -> Dict[str, Any]:
    return {
        "worker": app.config.worker_index,
        "records": [r.to_dict() for r in app.recorder.trace(trace_id)],
    }


# -- registration -------------------------------------------------------------


def register_routes(router) -> None:
    """Install every endpoint on *router* (see module docstring)."""
    router.add("GET", "/healthz", healthz, name="healthz")
    router.add("GET", "/metrics", metrics_text, name="metrics")
    router.add("GET", "/version", version, name="version")
    router.add("GET", "/debug/requests", debug_requests, name="debug.requests")
    router.add("GET", "/debug/slow", debug_slow, name="debug.slow")
    router.add("GET", "/debug/trace/{trace_id}", debug_trace, name="debug.trace")
    router.add("GET", "/artifacts", artifacts_index, name="artifacts")
    router.add("GET", "/artifacts/{name}", artifact, name="artifact")
    router.add("GET", "/tech", tech_index, name="tech")
    router.add("GET", "/cmos/gains", cmos_gains, name="cmos.gains")
    router.add("GET", "/csr/{study}", csr_study, name="csr.study")
    router.add("GET", "/wall/projections", wall_projections, name="wall.projections")
    router.add("POST", "/wall/whatif", wall_whatif, name="wall.whatif")
    router.add("POST", "/evaluate", evaluate, name="evaluate")
    router.add("POST", "/attribute", attribute, name="attribute")
    router.add("POST", "/sweeps", sweeps_submit, name="sweeps.submit")
    router.add("GET", "/sweeps", sweeps_list, name="sweeps.list")
    router.add("GET", "/sweeps/{job_id}", sweeps_get, name="sweeps.get")
    router.add("DELETE", "/sweeps/{job_id}", sweeps_cancel, name="sweeps.cancel")


def register_internal_routes(router) -> None:
    """Install the worker-to-worker surface (internal listener only)."""
    router.add("GET", "/internal/metrics", internal_metrics, name="internal.metrics")
    router.add("GET", "/internal/jobs", internal_jobs, name="internal.jobs")
    router.add("GET", "/internal/jobs/{job_id}", internal_job, name="internal.job")
    router.add(
        "DELETE",
        "/internal/jobs/{job_id}",
        internal_job_cancel,
        name="internal.job.cancel",
    )
    router.add(
        "GET",
        "/internal/debug/requests",
        internal_debug_requests,
        name="internal.debug.requests",
    )
    router.add(
        "GET",
        "/internal/debug/slow",
        internal_debug_slow,
        name="internal.debug.slow",
    )
    router.add(
        "GET",
        "/internal/debug/trace/{trace_id}",
        internal_debug_trace,
        name="internal.debug.trace",
    )
