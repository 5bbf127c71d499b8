"""``repro.serve`` — the async, observable model-serving layer.

Started via ``repro serve``; answers the paper's core queries over a
stdlib-only asyncio HTTP server with a response LRU, background sweep
jobs, rate limiting, load shedding, Prometheus metrics, and
provenance-stamped responses.  Fitted models, case studies and traced
kernels are built once per process (:mod:`repro.memo`).  ``repro serve
--workers N`` scales the same server across cores under a forking
supervisor: it warms the memo before the first fork, so every worker
inherits it, and its shared directory holds the job records and each
worker's published metrics (see ``docs/METHODOLOGY.md`` §12 and §14).
"""

from repro.serve.app import ServeApp, ServeConfig, ServerHandle
from repro.serve.cache import LruCache
from repro.serve.debug import FlightRecorder, RequestRecord
from repro.serve.jobs import Job, JobQueue, QueueFullError, UnknownJobError
from repro.serve.limits import InflightGate, RateLimiter
from repro.serve.router import HttpError, Request, Response, Router
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
    "ServerHandle",
    "Supervisor",
    "SupervisorHandle",
    "UnknownJobError",
]
