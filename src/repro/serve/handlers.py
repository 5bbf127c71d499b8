"""Endpoint implementations for the serving layer.

Each handler is ``async def handler(app, request, **path_params)`` taking
the :class:`repro.serve.app.ServeApp` and a parsed
:class:`repro.serve.router.Request`; it returns a JSON-able payload or,
for an answer held as text (the process memo, the response LRU), its
JSON text as ``bytes``; the app wraps either into the provenance
envelope.  A ready :class:`~repro.serve.router.Response` carries a
non-JSON body.

The query endpoints reuse the *same* builder functions as ``repro
export`` (:func:`repro.reporting.export.artifact_builders`, the study
objects, :meth:`repro.wall.limits.WallReport.at_limits`, ...), so a
served payload is byte-for-byte the number set the offline artifact
carries — the golden parity the drift comparator checks in the test
suite and CI.
"""

from __future__ import annotations

import os
import platform
import re
import time
from typing import Any, Dict, List, Mapping, Optional

from repro.serve.router import HttpError, Request, Response, encode_json, json_head
from repro.serve import jobs as jobmod

__all__ = [
    "register_routes",
    "render_prometheus",
]


# -- operational surface ------------------------------------------------------


async def healthz(app, request: Request) -> Dict[str, Any]:
    counts = app.jobs.counts()
    payload: Dict[str, Any] = {
        "status": "draining" if app.draining else "ok",
        "uptime_s": time.time() - app.started_unix,
        "inflight_requests": app.inflight,
        "jobs": counts,
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


def _labels(*pairs: str) -> str:
    """``{a,b}`` for the non-empty label *pairs*; ``""`` when there are none."""
    present = [pair for pair in pairs if pair]
    return "{" + ",".join(present) + "}" if present else ""


def render_prometheus(
    snapshots: Mapping[Optional[int], Mapping[str, Mapping[str, object]]]
) -> str:
    """Render :meth:`MetricsRegistry.snapshot` maps as Prometheus text format.

    *snapshots* maps a fleet worker's index to that worker's snapshot, and
    each series then carries a ``{worker="i"}`` label; a single process
    passes ``{None: snapshot}`` and gets unlabelled series.  Each metric
    name gets one ``TYPE`` line and one series per worker that reported
    it.  Counters and gauges map directly; histograms become histogram
    families with cumulative ``_bucket{le="..."}`` series over the
    log-linear bucket bounds plus ``_sum`` and ``_count``.
    """
    lines: List[str] = []
    workers = sorted(snapshots, key=lambda worker: -1 if worker is None else worker)
    names = sorted({name for snap in snapshots.values() for name in snap})
    for name in names:
        prom = _prom_name(name)
        entries = [
            (worker, snapshots[worker][name])
            for worker in workers
            if name in snapshots[worker]
        ]
        kind = entries[0][1].get("type")
        if kind not in ("counter", "gauge", "histogram"):
            continue
        lines.append(f"# TYPE {prom} {kind}")
        for worker, entry in entries:
            label = "" if worker is None else f'worker="{worker}"'
            if kind == "counter":
                lines.append(f"{prom}{_labels(label)} {int(entry.get('value', 0))}")
            elif kind == "gauge":
                value = float(entry.get("value", 0.0))
                lines.append(f"{prom}{_labels(label)} {value:g}")
            else:
                for le, cumulative in _histogram_series(entry):
                    bucket = _labels(label, f'le="{le}"')
                    lines.append(f"{prom}_bucket{bucket} {cumulative}")
                total = float(entry.get("sum", 0.0))
                lines.append(f"{prom}_sum{_labels(label)} {total:.9g}")
                lines.append(
                    f"{prom}_count{_labels(label)} {int(entry.get('count', 0))}"
                )
    return "\n".join(lines) + "\n"


async def metrics_text(app, request: Request) -> Response:
    from repro.obs.metrics import metrics

    local = metrics().snapshot()
    snapshots: Dict[Optional[int], Mapping[str, Mapping[str, object]]]
    if app.config.fleet_dir is None:
        # Single-process mode keeps the unlabelled format: existing
        # dashboards and the CI smoke greps parse it as-is.
        snapshots = {None: local}
    else:
        snapshots = {
            index: state["metrics"] for index, state in app.fleet_state().items()
        }
        snapshots[app.config.worker_index] = local
    return Response.text(
        render_prometheus(snapshots),
        content_type="text/plain; version=0.0.4; charset=utf-8",
    )


# -- flight recorder (debug surface) ------------------------------------------
#
# Ops-exempt like /metrics: an overloaded or draining server is exactly
# when operators need the recorder.  Fleet-merged like /metrics — any
# replica answers for the whole fleet from the other workers' published
# rows, skipping a worker whose file is missing or unreadable.


def _bounded_n(request: Request, default: int, cap: int = 1000) -> int:
    n = request.param_int("n", default)
    if n is None or n < 1:
        raise HttpError(400, f"query parameter n={n!r} must be >= 1")
    return min(n, cap)


def _fleet_rows(app) -> List[Dict[str, Any]]:
    """The other workers' published flight-recorder rows."""
    return [
        row
        for state in app.fleet_state().values()
        for row in state["requests"]
        if isinstance(row, dict)
    ]


async def debug_requests(app, request: Request) -> Dict[str, Any]:
    """The newest ``n`` request records across the fleet (oldest first)."""
    n = _bounded_n(request, 50)
    rows = [r.to_dict() for r in app.recorder.tail(n)] + _fleet_rows(app)
    rows.sort(key=lambda r: float(r.get("start_unix") or 0.0))
    return {
        "requests": rows[-n:],
        "capacity": app.recorder.capacity,
        "recorded": len(app.recorder),
    }


async def debug_slow(app, request: Request) -> Dict[str, Any]:
    """The ``n`` slowest retained records across the fleet, slowest first."""
    n = _bounded_n(request, 20)
    rows = [r.to_dict() for r in app.recorder.slowest(n)] + _fleet_rows(app)
    rows.sort(key=lambda r: float(r.get("duration_s") or 0.0), reverse=True)
    return {"requests": rows[:n]}


async def debug_trace(app, request: Request, trace_id: str) -> Dict[str, Any]:
    """Every retained record of one trace, stitched across the fleet.

    The response carries the raw records (each with its spans) plus a
    ready Chrome trace (``chrome_trace`` key) with per-worker process
    tracks and flow arrows between the records — save it to a file and
    open it in Perfetto.
    """
    from repro.serve.debug import chrome_trace

    records = [r.to_dict() for r in app.recorder.trace(trace_id)] + [
        row for row in _fleet_rows(app) if row.get("trace_id") == trace_id
    ]
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


async def artifact(app, request: Request, name: str) -> bytes:
    return await app.artifact_text(name)


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
    # Two model evaluations (~31 µs): computed on the event loop, since a
    # hop to the thread pool would cost more than the work.
    model = app.model if backend is None else backend.model()
    gains = model.evaluate(node, frequency, area_mm2=area, tdp_w=tdp)
    base = model.evaluate(baseline_node, frequency, area_mm2=area, tdp_w=tdp)
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
        "energy_efficiency_gain": gains.energy_efficiency / base.energy_efficiency,
    }


# -- case-study CSR series (Eqs 1-2) ------------------------------------------


async def csr_study(app, request: Request, study: str) -> bytes:
    """One case study's baseline-normalised CSR series and summary.

    ``?tech=<backend>`` re-decomposes the series under that technology's
    potential model (the counterfactual "what if these chips had been
    built in tech T"); without it the fitted CMOS model is used and the
    response is unchanged from earlier schema versions.  Each (study,
    backend) payload is computed and encoded once per process.
    """
    obj = app.study(study)
    backend = _tech_param(app, request)
    key = ("serve.csr", study) + (() if backend is None else backend.memo_key())

    def compute() -> bytes:
        model = app.model if backend is None else backend.model()
        series = obj.performance_series(model)
        extra = {} if backend is None else {"tech": backend.name}
        payload = {
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
        return encode_json(payload)

    return await app.memoized(key, compute)


# -- wall projections and what-if (Eqs 5-6, Table V) --------------------------


async def wall_projections(app, request: Request) -> bytes:
    """The Figs 15-16 projections — identical to the fig15_16 artifact.

    ``?tech=<backend>`` serves that technology's re-run projections
    instead (identical to the exported ``fig15_16_<backend>`` artifact),
    wrapped with the backend's name so responses are self-describing.
    The wrapper's text is spliced around the artifact's once per process.
    """
    backend = _tech_param(app, request)
    if backend is None:
        return await app.artifact_text("fig15_16")
    name = backend.name
    projections = await app.artifact_text(f"fig15_16_{name}")

    def wrap() -> bytes:
        head = json_head({"tech": name, "baseline": "cmos", "projections": None})
        return head + projections + b"}"

    return await app.memoized(("serve.wall_projections", name), wrap)


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


async def wall_whatif(app, request: Request) -> bytes:
    """What-if: read one domain's wall under scaled Table V limits.

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
    params = {"domain": domain, "metric": metric, **scales}

    async def compute() -> Dict[str, Any]:
        return compute_whatif(app, params)

    return await app.cached(key, compute)


def compute_whatif(app, params: Mapping[str, Any]) -> Dict[str, Any]:
    """One what-if, computed on the event loop: the baseline wall read at
    one scaled Table V row.

    The baseline is the process's memoized cmos wall report, so a miss
    evaluates one limit chip and fits nothing
    (:meth:`~repro.wall.limits.WallReport.at_limits`): 0.2-0.3 ms, and
    about 10 ms for the first miss of a process, which builds the wall.
    """
    from repro.tech.scenarios import wall_reports
    from repro.wall.limits import domain_limits

    domain = params["domain"]
    metric = params["metric"]
    (baseline,) = [
        report
        for report in wall_reports("cmos")
        if report.domain == domain and report.metric == metric
    ]
    point = baseline.at_limits(
        domain_limits(domain).scaled(
            params["die_scale"], params["tdp_scale"], params["frequency_scale"]
        ),
        app.model,
    )
    return {
        "domain": domain,
        "metric": metric,
        "scales": {
            "die": params["die_scale"],
            "tdp": params["tdp_scale"],
            "frequency": params["frequency_scale"],
        },
        "baseline": _headroom(baseline),
        "scenario": _headroom(point),
    }


def _headroom(report) -> Dict[str, float]:
    low, high = report.headroom
    return {
        "physical_limit": report.physical_limit,
        "headroom_low": low,
        "headroom_high": high,
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


async def evaluate(app, request: Request) -> bytes:
    """Evaluate one accelerator design point.

    Body: ``{"workload": "S3D", "node_nm": 5, "partition": 64,
    "simplification": 9, "heterogeneity": true}``.  Answers come from the
    response LRU when the same point was asked before.
    """
    body = request.json_object()
    workload = body.get("workload", "S3D")
    if not isinstance(workload, str):
        raise HttpError(400, f"workload must be a string, got {workload!r}")
    app.workload(workload)  # validate abbrev up front -> 400 with valid names
    params = _design_params(body)
    key = (
        "evaluate", workload.upper(), params["node_nm"],
        params["partition"], params["simplification"], params["heterogeneity"],
    )
    item = {"workload": workload, **params}

    async def compute() -> Dict[str, Any]:
        return compute_evaluate(app, item)

    return await app.cached(key, compute)


def compute_evaluate(app, item: Mapping[str, Any]) -> Dict[str, Any]:
    """One design-point request, evaluated on the event loop.

    Runs on the workload's :meth:`ServeApp.batch_evaluator`, which shares
    the workload's schedule cache: design points with common structural
    parameters (partition, fusion window, pipeline latency) schedule once
    per process.  A point takes 0.13 ms to a few ms, and a kernel's
    first point also traces it (AES: 15-36 ms), once per process.
    The report is bit-identical to ``evaluate_design``; an invalid design
    raises a :class:`~repro.errors.ReproError`, which answers 400.
    """
    from repro.accel.design import DesignPoint

    design = DesignPoint(
        node_nm=item["node_nm"],
        partition=item["partition"],
        simplification=item["simplification"],
        heterogeneity=item["heterogeneity"],
    )
    (report,) = app.batch_evaluator(item["workload"]).evaluate([design]).reports()
    return {
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


#: The name ``benchmarks/e2e/layers.py`` wraps to time the serve layer;
#: delete it once that file names :func:`compute_evaluate`.
compute_evaluate_batch = compute_evaluate


async def attribute(app, request: Request) -> bytes:
    """Fig 14 gain attribution for one workload.

    Body: ``{"workload": "FFT", "metric"?: "throughput", "node_nm"?: 5,
    "baseline_node_nm"?: 45}``.  Runs over the full Table III grid, on the
    thread pool, because a miss can run long; answers come from the
    response LRU when the same attribution was asked before.  A miss
    searches on the workload's :meth:`ServeApp.batch_evaluator`, the one
    behind ``/evaluate``, so it reuses the macro graphs and schedules
    that earlier requests of either endpoint resolved.
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
    node_nm = _number(body, "node_nm", 5.0)
    baseline_node_nm = _number(body, "baseline_node_nm", 45.0)
    key = ("attribute", workload.upper(), metric, node_nm, baseline_node_nm)

    def compute() -> Dict[str, Any]:
        from repro.accel.attribution import attribute_gains

        kernel = app.kernel(workload)
        attribution = attribute_gains(
            kernel,
            metric,
            node_nm=node_nm,
            baseline_node_nm=baseline_node_nm,
            batch=app.batch_evaluator(workload),
        )
        return {
            "workload": kernel.name,
            "metric": metric,
            "total_gain": attribution.total_gain,
            "csr": attribution.csr,
            "shares": attribution.shares,
        }

    return await app.cached(key, lambda: app.run_blocking(compute))


# -- background sweeps --------------------------------------------------------


async def sweeps_submit(app, request: Request) -> Any:
    """Submit a sweep as a background job; returns the job id.

    Body: ``{"workload": "S3D", "nodes"?: [...], "partitions"?: [...],
    "simplifications"?: [...]}``.  Each omitted list takes its full
    Table III range.
    """
    body = request.json_object()
    workload = body.get("workload", "S3D")
    if not isinstance(workload, str):
        raise HttpError(400, f"workload must be a string, got {workload!r}")
    app.workload(workload)
    params: Dict[str, Any] = {"workload": workload}
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
    return app.json_response(
        {"job": job.to_dict(include_result=False)}, status=202
    )


async def sweeps_list(app, request: Request) -> Dict[str, Any]:
    jobs = [job.to_dict(include_result=False) for job in app.jobs.jobs()]
    return {"jobs": jobs, "counts": app.jobs.counts()}


def _job_or_404(app, job_id: str):
    try:
        return app.jobs.get(job_id)
    except jobmod.UnknownJobError:
        raise HttpError(
            404,
            f"no job {job_id!r} (settled jobs are evicted after "
            f"{app.jobs.history} entries)",
        )


async def sweeps_get(app, request: Request, job_id: str) -> Dict[str, Any]:
    job = _job_or_404(app, job_id)
    return {"job": job.to_dict(include_result=True)}


async def sweeps_cancel(app, request: Request, job_id: str) -> Any:
    """Cancel a queued job; 409 when it already left ``queued``."""
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
