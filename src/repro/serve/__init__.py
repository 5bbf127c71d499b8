"""``repro.serve`` — the async, observable model-serving layer.

Started via ``repro serve``; loads the fitted CMOS model, case studies,
and sweep engine once, then answers the paper's core queries over a
stdlib-only asyncio HTTP server with a response LRU, background sweep
jobs, rate limiting, load shedding, Prometheus metrics, and
provenance-stamped responses.  ``repro serve --workers N`` scales the
same server across cores under a forking supervisor whose shared
directory holds the warm snapshot, the job records, and each worker's
published metrics (see ``docs/METHODOLOGY.md`` §12 and §14).
"""

from repro.serve.app import ServeApp, ServeConfig, ServerHandle
from repro.serve.cache import LruCache
from repro.serve.debug import FlightRecorder, RequestRecord
from repro.serve.jobs import Job, JobQueue, QueueFullError, UnknownJobError
from repro.serve.limits import InflightGate, RateLimiter
from repro.serve.router import HttpError, Request, Response, Router
from repro.serve.snapshot import ServeSnapshot, build_snapshot, load_snapshot
from repro.serve.supervisor import Supervisor, SupervisorHandle

__all__ = [
    "FlightRecorder",
    "HttpError",
    "InflightGate",
    "Job",
    "RequestRecord",
    "JobQueue",
    "LruCache",
    "QueueFullError",
    "RateLimiter",
    "Request",
    "Response",
    "Router",
    "ServeApp",
    "ServeConfig",
    "ServeSnapshot",
    "ServerHandle",
    "Supervisor",
    "SupervisorHandle",
    "UnknownJobError",
    "build_snapshot",
    "load_snapshot",
]
