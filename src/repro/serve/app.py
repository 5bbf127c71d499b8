"""The serving application: state, HTTP protocol, and lifecycle.

``repro serve`` builds one :class:`ServeApp`: it builds the sweep
engine at startup, captures a run manifest into the provenance ledger,
and then serves the paper's core queries over a small stdlib-only
HTTP/1.1 server (``asyncio.start_server`` — no web framework, no new
runtime deps).  Fitted models, case studies, wall reports, traced
kernels, artifact payloads and ``/csr`` payloads come from the process
memo (:mod:`repro.memo`): each is built on first use, or inherited
already built from a forking supervisor.

Request flow::

    connection -> parse -> rate limit -> route -> handler
                                          |          |
                                          |          +-- inline on the event loop (/cmos/gains)
                                          |          +-- memoized: process memo, miss -> run_blocking
                                          |          +-- cached: response LRU, miss -> the handler's
                                          |          |   computation: inline (/evaluate, /wall/whatif)
                                          |          |   or run_blocking (/attribute)
                                          |          +-- JobQueue (background sweeps)
                                          +-- 429 Too Many Requests

Work runs where it costs least.  A computation shorter than a round trip
through the thread pool runs on the event loop: a ``/cmos/gains`` answer
and an ``/evaluate`` or ``/wall/whatif`` miss take 31 µs to a few ms,
and up to a few tens of ms once per process (a kernel's first trace,
the first what-if's wall build).  The pool (:meth:`ServeApp.run_blocking`) keeps
only work that can run long: the first build of a finite answer, an
``/attribute`` miss and sweep jobs.  Pure-Python work on a pool thread
holds the GIL the loop waits for, so a hop costs more than it saves
unless the work is long.

Every JSON response is wrapped in the provenance envelope
``{"schema_version", "server": {run_id, git, version, ...}, "data"}`` so
served numbers can be joined to the run ledger and drift-checked against
exported artifacts.  The envelope's text up to ``"data": `` is encoded
once at startup; a body is that prefix, the data's JSON text and ``}``.
Finite answers and response-cache entries are held as JSON text, so a
hit encodes nothing.  SIGTERM/SIGINT trigger a graceful drain: the
listener closes, in-flight requests finish, queued jobs are cancelled,
running jobs get a bounded grace period, and the process exits 0.

Under a supervisor each worker shares state with its siblings through
files in the supervisor's fleet directory, never over the network: job
records (:mod:`repro.serve.jobs`) and ``workers/<index>.json``, this
worker's metrics snapshot and flight-recorder rows, rewritten every
:data:`PUBLISH_INTERVAL_S` seconds.  ``/metrics`` and ``/debug/*`` merge
the live local state with the other workers' files, so their view of a
sibling can lag by up to one publish interval.
"""

from __future__ import annotations

import asyncio
import contextvars
import logging
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError, ValidationError
from repro.memo import memo, peek
from repro.obs.log import get_logger, kv, set_log_run_id
from repro.obs.metrics import metrics
from repro.obs.trace import (
    Tracer,
    get_tracer,
    new_trace_id,
    set_tracer,
    span,
    trace_id_from_headers,
    trace_scope,
)
from repro.provenance.manifest import read_json_object, write_json_atomic
from repro.serve.cache import LruCache
from repro.serve.debug import FlightRecorder
from repro.serve.handlers import register_routes
from repro.serve.jobs import DONE, Job, JobQueue
from repro.serve.limits import InflightGate, RateLimiter
from repro.serve.router import (
    HttpError,
    Request,
    Response,
    Router,
    encode_json,
    json_head,
)

__all__ = ["ServeApp", "ServeConfig", "ServerHandle"]

logger = get_logger("serve.http")

MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024
IDLE_TIMEOUT_S = 30.0

#: Routes exempt from rate limiting and drain rejection (operators must
#: always be able to probe a draining or overloaded server — the debug
#: surface exists precisely for overloaded servers).
OPS_ROUTES = (
    "healthz",
    "metrics",
    "version",
    "debug.requests",
    "debug.slow",
    "debug.trace",
)

#: Spans a long-running server's tracer retains before evicting oldest.
#: Each request's spans are moved into the flight recorder as the request
#: finishes, so this ring only holds in-flight and orphaned spans.
TRACER_RING = 8192

#: Seconds between a fleet worker's rewrites of ``workers/<index>.json``.
PUBLISH_INTERVAL_S = 1.0


def worker_state_path(fleet_dir: str, index: int) -> Path:
    """Where fleet worker *index* publishes its metrics and recorder rows."""
    return Path(fleet_dir, "workers", f"{index}.json")


def served_kernel(workload, engine):
    """*workload*'s traced kernel, traced by *engine* once per process.

    :meth:`ServeApp.kernel` and the supervisor's pre-fork warm-up both go
    through here, so they share one memo key.
    """
    return memo(("serve.kernel", workload.abbrev), lambda: engine.trace(workload))


@dataclass
class ServeConfig:
    """Tunables of one serving process (CLI flags map 1:1 onto these)."""

    host: str = "127.0.0.1"
    port: int = 8080
    jobs: int = 1                  # sweep-engine worker processes
    cache_dir: Optional[str] = None
    use_cache: bool = False        # persistent schedule cache opt-in
    threads: int = 4               # blocking-work thread pool size
    workers: int = 1               # serve processes (>1 = supervised fork)
    response_cache: int = 1024     # LRU entries; 0 disables
    rate_limit: float = 0.0        # requests/s per client; 0 disables
    rate_burst: Optional[float] = None
    max_inflight: int = 64         # in-flight cap per worker; 0 disables
    job_concurrency: int = 1
    max_pending_jobs: int = 32
    drain_timeout_s: float = 10.0
    flight_recorder: int = 256     # request records retained per worker
    # -- multi-worker plumbing (set by the supervisor, not by users) ----------
    worker_index: Optional[int] = None
    fleet_dir: Optional[str] = None   # shared dir: jobs/, workers/, cache/


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line; a line past the stream limit is a
    framing error (asyncio reports the overrun as :class:`ValueError`)."""
    try:
        return await reader.readline()
    except ValueError:
        raise ConnectionError("request line too long") from None


async def _read_message(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, str, Dict[str, str], bytes]]:
    """``(method, target, version, headers, body)`` of one request, or
    ``None`` when the socket closed (or sent a blank line) before one began.

    Lines may end in CRLF or a bare LF; malformed framing, or a body
    longer than :data:`MAX_BODY_BYTES`, raises :class:`ConnectionError`.
    """
    line = await _read_line(reader)
    if not line.strip():
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ConnectionError("malformed request line")
    headers: Dict[str, str] = {}
    total = len(line)
    while True:
        header_line = await _read_line(reader)
        total += len(header_line)
        if total > MAX_HEADER_BYTES:
            raise ConnectionError("header block too large")
        if header_line in (b"\r\n", b"\n", b""):
            break
        name, _, value = header_line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise ConnectionError("malformed Content-Length")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise ConnectionError("request body too large")
    body = await reader.readexactly(length) if length else b""
    method, target, http_version = parts
    return method, target, http_version, headers, body


class ServeApp:
    """One serving process: loaded state + HTTP front end."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config if config is not None else ServeConfig()
        self.router = Router()
        register_routes(self.router)
        self.started_unix = time.time()
        self.inflight = 0
        self.draining = False
        self._shutdown = None  # asyncio.Event, created on the serving loop
        self._server: Optional[asyncio.base_events.Server] = None
        self._publisher: Optional[asyncio.Task] = None
        self._connections: set = set()
        self._started = False
        #: Pre-bound listening socket handed over by the supervisor (fork path).
        self.listen_sock: Optional[socket.socket] = None

    # -- startup ---------------------------------------------------------------

    def startup(self) -> None:
        """Build the serving state; must run before serving (idempotent)."""
        if self._started:
            return
        from repro.accel.engine import SweepEngine
        from repro.accel.resources import ResourceLibrary
        from repro.provenance.manifest import SCHEMA_VERSION, RunLedger, capture
        from repro.tech import get_backend

        config = self.config
        # The process's one cmos model: payloads memoized for the whole
        # process must not be built from per-app state.
        self.model = get_backend("cmos").model()
        self.library = ResourceLibrary()
        self.engine = SweepEngine(
            jobs=config.jobs,
            cache_dir=config.cache_dir,
            use_cache=config.use_cache,
        )
        self.executor = ThreadPoolExecutor(
            max_workers=max(1, config.threads), thread_name_prefix="serve"
        )
        self.schema_version = SCHEMA_VERSION
        self.manifest = capture("serve", argv=[])
        self.git = dict(self.manifest.git)
        self._envelope_head = json_head(self.envelope(None))
        try:
            RunLedger().record(self.manifest)
        except OSError:
            pass  # provenance is best-effort; serving must still come up
        self.recorder = FlightRecorder(max(1, config.flight_recorder))
        # Request tracing is always on for a server: spans feed the
        # flight recorder.  A CLI-installed tracer (--profile) is kept;
        # otherwise install a bounded ring and restore on drain.
        self._installed_tracer = get_tracer() is None
        if self._installed_tracer:
            set_tracer(Tracer(max_spans=TRACER_RING))
        set_log_run_id(self.manifest.run_id)
        self._batch_evaluators: Dict[str, Any] = {}
        self._evaluator_lock = threading.Lock()
        self._response_cache = LruCache(config.response_cache)
        self.gate = InflightGate(config.max_inflight)
        self.jobs = JobQueue(
            self._run_job,
            concurrency=config.job_concurrency,
            max_pending=config.max_pending_jobs,
            executor=self.executor,
            worker_index=config.worker_index,
            fleet_dir=config.fleet_dir,
        )
        self.jobs.on_settled = self._record_job
        self.limiter = RateLimiter(config.rate_limit, config.rate_burst)
        self._started = True
        logger.info(
            "serve.startup %s",
            kv(
                run_id=self.manifest.run_id,
                worker=config.worker_index,
                jobs=config.jobs,
                rate_limit=config.rate_limit,
                max_inflight=config.max_inflight,
            ),
        )

    # -- state accessors used by handlers --------------------------------------

    async def run_blocking(self, fn: Callable[[], Any]) -> Any:
        """Run *fn*, work that can run long, on the app's thread pool.

        Only work that would stall the event loop goes here: a finite
        answer's first build, an ``/attribute`` miss, a sweep job.  Shorter
        work runs inline, because the hop and the wait for the GIL cost
        more than it does.  The caller's context is copied into the worker
        thread — ``run_in_executor`` does not do that by itself — so spans
        opened inside *fn* keep the request's trace id.
        """
        loop = asyncio.get_event_loop()
        ctx = contextvars.copy_context()
        return await loop.run_in_executor(self.executor, lambda: ctx.run(fn))

    def workload_names(self) -> List[str]:
        from repro.workloads import WORKLOADS

        return [w.abbrev for w in WORKLOADS]

    def workload(self, abbrev: str):
        """Resolve a workload abbreviation; 400 with the valid names."""
        from repro.workloads import get_workload

        try:
            return get_workload(abbrev)
        except ReproError:
            raise HttpError(
                400,
                f"unknown workload {abbrev!r}",
                valid_workloads=self.workload_names(),
            )

    def kernel(self, abbrev: str):
        """The traced kernel for *abbrev*, traced once per process."""
        return served_kernel(self.workload(abbrev), self.engine)

    def batch_evaluator(self, abbrev: str):
        """Per-workload :class:`BatchEvaluator` behind ``/evaluate`` and
        ``/attribute``.

        Its schedule memo, macro graphs and scale tables amortize across
        every request of either endpoint for the process lifetime.  The
        event loop (``/evaluate``) and pool threads (``/attribute``) share
        it; its lock serializes their calls.
        """
        from repro.accel.batch import BatchEvaluator

        key = abbrev.upper()
        evaluator = self._batch_evaluators.get(key)
        if evaluator is not None:
            return evaluator
        kernel = self.kernel(key)
        with self._evaluator_lock:
            evaluator = self._batch_evaluators.get(key)
            if evaluator is None:
                cache = self.engine.schedule_cache(kernel, self.library)
                evaluator = BatchEvaluator(kernel, cache=cache)
                self._batch_evaluators[key] = evaluator
        return evaluator

    def study(self, name: str):
        """Resolve a case-study name; 400 with the valid names."""
        from repro.studies import STUDIES, named_study

        if name not in STUDIES:
            raise HttpError(
                400, f"unknown study {name!r}", valid_studies=list(STUDIES)
            )
        return named_study(name)

    def artifact_names(self) -> List[str]:
        from repro.reporting.export import artifact_registry

        return sorted(artifact_registry(self.model))

    def tech_backend(self, name: str):
        """Resolve a technology backend name; 400 with the valid names."""
        from repro.tech import backend_names, get_backend

        try:
            return get_backend(name)
        except ReproError:
            raise HttpError(
                400,
                f"unknown technology {name!r}",
                valid_technologies=backend_names(),
            )

    async def artifact_text(self, name: str) -> bytes:
        """One export artifact's ``data`` as JSON text, built once per process.

        The payload goes through the same builder and ``_jsonable``
        coercion as ``repro export``, so endpoint responses are golden-
        parity with exported artifact files.  Per-technology artifacts
        (``fig15_16_tfet``, ``tech_delta_chiplet``, ...) resolve through
        the same registry as ``export --only``.  An unknown name answers
        404 and stores nothing.
        """
        from repro.reporting.export import _jsonable, artifact_registry

        def build() -> bytes:
            builders = artifact_registry(self.model, engine=self.engine)
            try:
                builder = builders[name]
            except KeyError:
                raise HttpError(
                    404,
                    f"unknown artifact {name!r}",
                    valid_artifacts=sorted(builders),
                )
            with span("serve.artifact", artifact=name):
                return encode_json(_jsonable(builder()))

        return await self.memoized(("serve.artifact", name), build)

    async def memoized(self, key, build: Callable[[], bytes]) -> bytes:
        """The process memo's JSON text for *key*, a tuple of names from
        finite sets.

        A hit answers on the event loop; a miss runs ``memo(key, build)``
        on the thread pool.  *build* returns the answer's JSON text, with
        no envelope: the envelope names the app's run, and one process
        may hold several apps.  A *build* that raises stores nothing.
        """
        found, value = peek(key)
        if found:
            return value
        return await self.run_blocking(lambda: memo(key, build))

    async def cached(self, key, compute: Callable[[], Awaitable[Any]]) -> bytes:
        """The JSON text of canonical request *key*'s answer, from the
        response LRU.

        For keys drawn from open sets (request floats); finite keys go
        through :meth:`memoized`.  A miss awaits ``compute()`` and stores
        the JSON text of the payload it returns.  A handler whose work is
        short computes inline; one whose work can run long awaits
        :meth:`run_blocking` inside *compute*.  The answer must be a pure
        function of *key*: concurrent misses on one key each compute and
        store the same value.  The LRU is read and written on the event
        loop only.
        """
        hit, value = self._response_cache.get(key)
        if hit:
            return value
        value = encode_json(await compute())
        self._response_cache.put(key, value)
        return value

    # -- background sweep jobs -------------------------------------------------

    def _run_job(self, kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """Blocking job body; runs on the thread pool, engine fans out.

        The queue binds the job's trace id (captured at submission)
        around this call, so the job's spans — and the flight-recorder
        record :meth:`_record_job` writes when it settles — join the
        submitting request's trace.
        """
        with span("serve.job", kind=kind):
            return self._run_job_body(kind, params)

    def _record_job(self, job: Job, elapsed_s: float) -> None:
        """The flight-recorder row of a job that ran, timed by the queue."""
        if job.trace_id is None:
            return
        tracer = get_tracer()
        self.recorder.record(
            trace_id=job.trace_id,
            route=f"job.{job.kind}",
            method="JOB",
            path=f"/sweeps#{job.kind}",
            status=200 if job.status == DONE else 500,
            duration_s=elapsed_s,
            start_unix=job.started_unix,
            client="jobqueue",
            worker=self.config.worker_index,
            spans=tracer.take(job.trace_id) if tracer is not None else (),
        )

    def _run_job_body(self, kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
        if kind != "sweep":
            raise ValidationError(f"unknown job kind {kind!r}")
        from repro.accel.design import SWEEP_NODES
        from repro.accel.sweep import default_design_grid

        abbrev = params["workload"]
        kernel = self.kernel(abbrev)
        try:
            grid = default_design_grid(
                nodes=tuple(params.get("nodes") or SWEEP_NODES),
                partitions=params.get("partitions"),
                simplifications=params.get("simplifications"),
            )
        except ReproError as exc:
            raise ValidationError(f"invalid sweep grid: {exc}")
        result = self.engine.sweep(kernel, grid)
        frontier = result.pareto_frontier()
        return {
            "workload": kernel.name,
            "design_points": len(result.reports),
            "stats": result.stats.to_dict(),
            "pareto_frontier": [
                {
                    "node_nm": r.design.node_nm,
                    "partition": r.design.partition,
                    "simplification": r.design.simplification,
                    "runtime_s": r.runtime_s,
                    "power_w": r.power_w,
                }
                for r in frontier
            ],
        }

    # -- fleet state --------------------------------------------------------------

    def _publish_state(self) -> None:
        """Write this worker's metrics and recorder rows for its siblings."""
        try:
            write_json_atomic(
                worker_state_path(self.config.fleet_dir, self.config.worker_index),
                {
                    "metrics": metrics().snapshot(),
                    "requests": [
                        r.to_dict() for r in self.recorder.tail(self.recorder.capacity)
                    ],
                },
            )
        except OSError as exc:  # siblings keep the last state written
            logger.warning("serve.publish_failed %s", kv(error=str(exc)))

    async def _publish_loop(self) -> None:
        while True:
            self._publish_state()
            await asyncio.sleep(PUBLISH_INTERVAL_S)

    def fleet_state(self) -> Dict[int, Dict[str, Any]]:
        """The other workers' last published state, keyed by worker index.

        A file that is missing, unreadable, or not of the published shape
        is skipped, so a worker mid-restart drops out of the merged views.
        """
        states: Dict[int, Dict[str, Any]] = {}
        if self.config.fleet_dir is None:
            return states
        for path in Path(self.config.fleet_dir, "workers").glob("*.json"):
            try:
                index = int(path.stem)
                state = read_json_object(path)
            except ValueError:  # includes ValidationError
                continue
            if (
                index != self.config.worker_index
                and isinstance(state.get("metrics"), dict)
                and isinstance(state.get("requests"), list)
            ):
                states[index] = state
        return states

    # -- envelope ---------------------------------------------------------------

    def envelope(self, data: Any) -> Dict[str, Any]:
        """Wrap *data* in the provenance envelope every response carries.

        Responses do not call this: :meth:`json_response` splices the
        data's text into the envelope's, encoded once at startup.
        """
        import repro

        return {
            "schema_version": self.schema_version,
            "server": {
                "run_id": self.manifest.run_id,
                "command": "serve",
                "version": repro.__version__,
                "git": self.git,
                "started_at": self.manifest.created_at,
            },
            "data": data,
        }

    def json_response(
        self,
        data: Any,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        """*data* in the provenance envelope: the one way a JSON body is built.

        *data* is a JSON-able value or its JSON text as ``bytes`` (a memo
        or response-cache hit), which is not encoded again.  The body is
        byte for byte ``json.dumps(self.envelope(data))`` and a newline.
        """
        text = data if isinstance(data, bytes) else encode_json(data)
        return Response(
            status=status,
            body=self._envelope_head + text + b"}\n",
            headers=dict(headers or {}),
        )

    # -- request dispatch -------------------------------------------------------

    async def dispatch(self, request: Request) -> Response:
        """Route one request and produce its response (never raises).

        The whole exchange runs under a trace scope: the id comes from an
        incoming ``traceparent``/``X-Trace-Id`` header (so a client
        stitches its requests into one trace) or is minted here, and goes
        back out as ``X-Trace-Id``.  When the request finishes, its spans
        move from the tracer into the flight recorder as one request record.
        """
        trace_id = request.trace_id or trace_id_from_headers(request.headers)
        if trace_id is None:
            trace_id = new_trace_id()
        request.trace_id = trace_id
        start_unix = time.time()
        with trace_scope(trace_id):
            response, route_name, elapsed = await self._dispatch_routed(request)
        response.headers.setdefault("X-Trace-Id", trace_id)
        recorder = getattr(self, "recorder", None)
        if recorder is not None:
            tracer = get_tracer()
            recorder.record(
                trace_id=trace_id,
                route=route_name,
                method=request.method,
                path=request.path,
                status=response.status,
                duration_s=elapsed,
                start_unix=start_unix,
                client=request.client,
                worker=self.config.worker_index,
                spans=tracer.take(trace_id) if tracer is not None else (),
            )
        return response

    async def _dispatch_routed(self, request: Request) -> Tuple[Response, str, float]:
        """Resolve, guard, and run one request.

        Returns the response, the route name and the request's one latency
        measurement, which the flight recorder also reports.
        """
        registry = metrics()
        start = perf_counter()
        route_name = "unrouted"
        gated = False
        try:
            route, params = self.router.resolve(request.method, request.path)
            route_name = route.name
            if self.draining and route_name not in OPS_ROUTES:
                raise HttpError(
                    503, "server is draining", headers={"Connection": "close"}
                )
            if route_name not in OPS_ROUTES:
                admitted, retry_after = self.limiter.allow(request.client)
                if not admitted:
                    registry.counter("serve.rate_limited").inc()
                    raise HttpError(
                        429,
                        f"rate limit exceeded for client {request.client!r}",
                        headers={"Retry-After": f"{retry_after:.3f}"},
                        retry_after_s=retry_after,
                    )
                if not self.gate.try_acquire():
                    # Load shedding: saturated workers answer immediately
                    # with an honest back-off instead of queueing without
                    # bound behind work they have no capacity for.
                    registry.counter("serve.shed").inc()
                    retry_after = self.gate.retry_after_s(
                        registry.histogram("serve.latency_s").mean_s
                    )
                    raise HttpError(
                        503,
                        f"server saturated ({self.gate.inflight} requests "
                        f"in flight, cap {self.gate.max_inflight})",
                        headers={"Retry-After": f"{retry_after:.3f}"},
                        retry_after_s=retry_after,
                    )
                gated = True
            self.inflight += 1
            registry.gauge("serve.inflight").set(self.inflight)
            try:
                with span("serve.request", route=route_name, method=request.method):
                    payload = await route.handler(self, request, **params)
            finally:
                self.inflight -= 1
                registry.gauge("serve.inflight").set(self.inflight)
            if isinstance(payload, Response):
                response = payload
            else:
                response = self.json_response(payload)
        except HttpError as exc:
            response = self.json_response(
                exc.payload(), status=exc.status, headers=exc.headers
            )
        except ReproError as exc:
            # Library guards rejecting an input are client errors, not 500s.
            response = self.json_response(
                {"error": str(exc), "status": 400}, status=400
            )
        except Exception as exc:  # noqa: BLE001 - never kill the connection loop
            logger.exception("request.failed method=%s path=%s", request.method, request.path)
            response = self.json_response(
                {"error": f"internal error: {type(exc).__name__}", "status": 500},
                status=500,
            )
        finally:
            if gated:
                self.gate.release()
        elapsed = perf_counter() - start
        registry.counter("serve.requests").inc()
        registry.counter(f"serve.requests.{route_name}").inc()
        registry.counter(f"serve.responses.{response.status // 100}xx").inc()
        registry.histogram("serve.latency_s").observe(elapsed)
        registry.histogram(f"serve.latency_s.{route_name}").observe(elapsed)
        if logger.isEnabledFor(logging.INFO):
            logger.info(
                "request %s",
                kv(
                    method=request.method,
                    path=request.path,
                    status=response.status,
                    ms=elapsed * 1e3,
                    client=request.client,
                ),
            )
        return response, route_name, elapsed

    # -- the HTTP/1.1 protocol --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if isinstance(peer, tuple) else "local"
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            # asyncio sets TCP_NODELAY itself only on listeners created with
            # proto=IPPROTO_TCP, which run() and the supervisor do not use.
            # Without it each keep-alive response waits on Nagle plus the
            # client's delayed ACK (~40 ms).
            writer.get_extra_info("socket").setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            while True:
                request, keep_alive = await self._read_request(reader, peer_host)
                if request is None:
                    break
                response = await self.dispatch(request)
                close = (
                    not keep_alive
                    or self.draining
                    or response.headers.get("Connection") == "close"
                )
                await self._write_response(writer, response, close)
                if close:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionError,
        ):
            pass  # client went away or idled out — normal churn
        except asyncio.CancelledError:
            pass  # drain cancelled an idle keep-alive connection
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, peer_host: str
    ) -> Tuple[Optional[Request], bool]:
        """Parse one request; ``(None, False)`` on a cleanly closed socket
        or a request that does not arrive within :data:`IDLE_TIMEOUT_S`.

        The whole request (request line, header lines and body) is read
        under one deadline, so a client that trickles header lines or
        stalls mid-body cannot hold the connection past it.  The deadline
        is one loop timer that fails the stream reader with
        :class:`asyncio.TimeoutError`, cancelled once the read ends: no
        task per request, as ``asyncio.wait_for`` would create, and it
        works on Python 3.9, which ``asyncio.timeout`` does not.  A
        drain's cancellation still arrives as ``CancelledError``.
        Malformed framing raises :class:`ConnectionError`; either way the
        connection closes without a response.
        """
        timer = asyncio.get_running_loop().call_later(
            IDLE_TIMEOUT_S, reader.set_exception, asyncio.TimeoutError()
        )
        try:
            message = await _read_message(reader)
        except asyncio.TimeoutError:
            return None, False
        finally:
            timer.cancel()
        if message is None:
            return None, False
        method, target, http_version, headers, body = message
        try:
            path, query = Request.parse_target(target)
        except ValueError:  # urlsplit rejects e.g. an unclosed "[" host
            raise ConnectionError("malformed request target") from None
        client = headers.get("x-client-id", peer_host)
        keep_alive = (
            http_version != "HTTP/1.0"
            and headers.get("connection", "").lower() != "close"
        )
        return (
            Request(
                method=method.upper(),
                path=path,
                query=query,
                headers=headers,
                body=body,
                client=client,
            ),
            keep_alive,
        )

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response, close: bool
    ) -> None:
        head = [
            f"HTTP/1.1 {response.status} {response.reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"X-Run-Id: {self.manifest.run_id}",
            f"X-Schema-Version: {self.schema_version}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        if self.config.worker_index is not None:
            head.append(f"X-Worker: {self.config.worker_index}")
        for name, value in response.headers.items():
            if name.lower() != "connection":
                head.append(f"{name}: {value}")
        # One write, so the head and the body leave in one send.
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body
        )
        await writer.drain()

    # -- lifecycle ---------------------------------------------------------------

    async def start_server(self) -> Tuple[str, int]:
        """Bind the listener and spawn job workers; returns (host, port).

        Under a supervisor the listening socket was bound before the fork
        (``listen_sock``) and is adopted here instead of binding a fresh
        one — that is what lets N workers share one port.  A fleet worker
        also starts publishing its state to the fleet directory.
        """
        self.startup()
        self._shutdown = asyncio.Event()
        self.jobs.start()
        if self.listen_sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self.listen_sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                self.config.host,
                self.config.port,
                family=socket.AF_INET,
            )
        sockname = self._server.sockets[0].getsockname()
        self.bound_port = sockname[1]
        if self.config.fleet_dir is not None:
            self._publisher = asyncio.create_task(self._publish_loop())
        logger.info(
            "serve.listening %s",
            kv(
                host=self.config.host,
                port=self.bound_port,
                worker=self.config.worker_index,
            ),
        )
        return self.config.host, self.bound_port

    def request_shutdown(self) -> None:
        """Begin a graceful drain (signal handlers and tests call this)."""
        self.draining = True
        if self._shutdown is not None:
            self._shutdown.set()

    async def _drain(self) -> None:
        """Stop accepting, let in-flight work finish, tear down bounded."""
        config = self.config
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + config.drain_timeout_s
        while self.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        # Remaining connections are idle keep-alives (or past the drain
        # budget): close them so nothing outlives the loop.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self.jobs.close(drain=True, timeout_s=config.drain_timeout_s)
        self.executor.shutdown(wait=True)
        if self._publisher is not None:
            self._publisher.cancel()
            await asyncio.gather(self._publisher, return_exceptions=True)
            self._publish_state()
        if getattr(self, "_installed_tracer", False):
            set_tracer(None)
            self._installed_tracer = False
        set_log_run_id(None)
        logger.info(
            "serve.drained %s",
            kv(inflight=self.inflight, uptime_s=time.time() - self.started_unix),
        )

    async def serve_until_shutdown(self, ready_line: Optional[str] = None) -> None:
        """Serve until SIGTERM/SIGINT (or :meth:`request_shutdown`), then drain.

        *ready_line* is printed once the signal handlers are installed, so
        a SIGTERM sent on seeing it always drains.
        """
        await self.start_server()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal support
        if ready_line is not None:
            print(ready_line, flush=True)
        assert self._shutdown is not None
        await self._shutdown.wait()
        self.draining = True
        await self._drain()

    def run(self) -> int:
        """Blocking entry point used by ``repro serve``; exits 0 on drain."""
        self.startup()
        if self.listen_sock is None:
            # Bind before printing so ``--port 0`` announces the real
            # ephemeral port (SupervisorHandle and operators parse it).
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.config.host, self.config.port))
            sock.listen(128)
            self.listen_sock = sock
        port = self.listen_sock.getsockname()[1]
        asyncio.run(
            self.serve_until_shutdown(
                f"serving on http://{self.config.host}:{port} "
                f"[run] {self.manifest.run_id}"
            )
        )
        print("drained, bye")
        return 0


class ServerHandle:
    """A server running on a background thread (tests and benchmarks).

    Usage::

        handle = ServerHandle(ServeConfig(port=0)).start()
        ... http requests against handle.port ...
        handle.stop()
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.app = ServeApp(config)
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self, timeout_s: float = 60.0) -> "ServerHandle":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise RuntimeError("server failed to start in time")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error}")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def main() -> None:
            try:
                self.host, self.port = await self.app.start_server()
            except BaseException as exc:  # noqa: BLE001 - surfaced to start()
                self._error = exc
                self._ready.set()
                return
            self._ready.set()
            assert self.app._shutdown is not None
            await self.app._shutdown.wait()
            self.app.draining = True
            await self.app._drain()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def stop(self, timeout_s: float = 30.0) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self.app.request_shutdown)
            self._thread.join(timeout_s)
