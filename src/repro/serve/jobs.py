"""Background job queue for long-running sweeps.

``POST /sweeps`` must not hold an HTTP connection open for the minutes a
full Table III sweep can take, so sweeps run as *jobs*: submission
returns an id immediately, execution happens on the existing
:class:`repro.accel.engine.SweepEngine` worker pool with bounded
concurrency, and clients poll ``GET /sweeps/{id}`` until the job settles.

Lifecycle::

    queued -> running -> done | failed
    queued -> cancelled                  (cancel before a worker picks it up)

A *running* job is not forcibly killed — the engine's process pool cannot
be safely interrupted mid-sweep — so cancelling one is refused; the
client sees its current state.  Settled jobs are kept for ``history``
entries so results stay pollable, then evicted oldest-first.

Under a supervisor the queue also keeps every job as a record file in the
fleet directory, ``jobs/<job_id>.json``, rewritten atomically at each
state change, and every worker answers polls, listings, and cancels by
reading those records, so a job resolves whichever worker the kernel
hands the connection to.  A queued job also has an empty
``jobs/<job_id>.queued`` token: the owner's start and any worker's
cancel both race to ``os.unlink`` it, and only one of them can win.
"""

from __future__ import annotations

import asyncio
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.obs.log import get_logger, kv
from repro.obs.metrics import metrics
from repro.obs.trace import current_trace_id, trace_scope
from repro.provenance.manifest import read_json_object, write_json_atomic

__all__ = [
    "Job",
    "JobQueue",
    "QueueFullError",
    "UnknownJobError",
    "fail_worker_jobs",
]

logger = get_logger("serve.jobs")

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can no longer leave.
SETTLED = (DONE, FAILED, CANCELLED)


class QueueFullError(RuntimeError):
    """The queue's pending backlog is at capacity."""


class UnknownJobError(KeyError):
    """No job with the requested id (it may have been evicted)."""


@dataclass
class Job:
    """One submitted sweep: identity, lifecycle stamps, and the result."""

    job_id: str
    kind: str
    params: Dict[str, Any]
    status: str = QUEUED
    submitted_unix: float = field(default_factory=time.time)
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    result: Optional[Any] = None
    error: Optional[str] = None
    #: Trace id of the submitting request — execution runs under it, so a
    #: job's spans and flight-recorder record join the submitter's trace.
    trace_id: Optional[str] = None

    @property
    def settled(self) -> bool:
        return self.status in SETTLED

    def to_dict(self, include_result: bool = True) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "job_id": self.job_id,
            "kind": self.kind,
            "params": self.params,
            "status": self.status,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "error": self.error,
            "trace_id": self.trace_id,
        }
        if include_result:
            payload["result"] = self.result
        else:
            payload["result"] = None
        return payload


def read_job(path: Path) -> Job:
    """The job record at *path*; :class:`UnknownJobError` if absent or corrupt."""
    try:
        return Job(**read_json_object(path))
    except (ValueError, TypeError):  # unreadable file, or not a job record
        raise UnknownJobError(path.stem) from None


def fail_worker_jobs(fleet_dir: str, worker_index: int, error: str) -> None:
    """Mark a dead worker's unsettled job records ``failed`` with *error*.

    The supervisor calls this when it reaps worker *worker_index*, whose
    queued and running jobs can no longer settle.
    """
    for path in Path(fleet_dir, "jobs").glob(f"job-w{worker_index}-*.json"):
        try:
            job = read_job(path)
        except UnknownJobError:
            continue
        if not job.settled:
            job.status, job.error, job.finished_unix = FAILED, error, time.time()
            write_json_atomic(path, job.to_dict())


class JobQueue:
    """Bounded asynchronous job runner over a blocking *runner* callable.

    Parameters
    ----------
    runner:
        ``runner(kind, params) -> result`` executed off the event loop for
        each job; exceptions mark the job ``failed`` with the message.
    concurrency:
        Jobs running simultaneously.  Each running job occupies one
        executor thread; the sweep engine underneath may still fan out
        across processes.
    max_pending:
        Backlog bound; submissions beyond it raise :class:`QueueFullError`
        (surfaced as HTTP 503).
    history:
        Settled jobs retained for polling before eviction.
    executor:
        Where *runner* runs (``None`` = the loop's default executor).
    worker_index:
        When serving as one of N supervised workers, the replica index —
        minted job ids become ``job-w<index>-<hex>``, so the supervisor
        can find a dead worker's jobs.
    fleet_dir:
        The supervisor's shared directory; when set, jobs are kept as
        record files there and every query reads them (module docstring).
    """

    def __init__(
        self,
        runner: Callable[[str, Dict[str, Any]], Any],
        concurrency: int = 1,
        max_pending: int = 32,
        history: int = 64,
        executor=None,
        worker_index: Optional[int] = None,
        fleet_dir: Optional[str] = None,
    ):
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        self.runner = runner
        self.concurrency = int(concurrency)
        self.max_pending = int(max_pending)
        self.history = int(history)
        self.executor = executor
        self.id_prefix = (
            "job-" if worker_index is None else f"job-w{int(worker_index)}-"
        )
        self.jobs_dir = None if fleet_dir is None else Path(fleet_dir, "jobs")
        if self.jobs_dir is not None:
            self.jobs_dir.mkdir(parents=True, exist_ok=True)
        #: ``on_settled(job, elapsed_s)``, called when a job that ran
        #: settles, with the queue's one measurement of its run (the serve
        #: app turns it into the job's flight-recorder row).
        self.on_settled: Optional[Callable[[Job, float], None]] = None
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._queue: "asyncio.Queue[str]" = asyncio.Queue()
        self._workers: List[asyncio.Task] = []
        self._running = 0
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker tasks (idempotent)."""
        loop = asyncio.get_event_loop()
        while len(self._workers) < self.concurrency:
            self._workers.append(loop.create_task(self._worker()))

    async def close(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Stop accepting jobs; optionally wait for running ones to settle.

        Queued jobs are cancelled immediately (they never started); with
        *drain* the running jobs get up to *timeout_s* to finish before
        the workers are torn down.
        """
        self._closed = True
        # Snapshot before iterating: _settle -> _evict may delete settled
        # jobs from self._jobs once the history bound is exceeded, and
        # mutating the dict mid-iteration raises RuntimeError.
        for job in list(self._jobs.values()):
            if job.status == QUEUED:
                self._settle(job, CANCELLED)
        if drain:
            deadline = time.monotonic() + timeout_s
            while self._running and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
        for worker in self._workers:
            worker.cancel()
        for worker in self._workers:
            try:
                await worker
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._workers.clear()

    # -- submission and queries ------------------------------------------------

    def submit(self, kind: str, params: Dict[str, Any]) -> Job:
        """Enqueue a job; raises :class:`QueueFullError` at capacity."""
        if self._closed:
            raise QueueFullError("job queue is shutting down")
        backlog = sum(1 for j in self._jobs.values() if j.status == QUEUED)
        if backlog >= self.max_pending:
            raise QueueFullError(
                f"job backlog is full ({backlog}/{self.max_pending} queued)"
            )
        job = Job(
            job_id=f"{self.id_prefix}{uuid.uuid4().hex[:12]}",
            kind=kind,
            params=params,
            trace_id=current_trace_id(),
        )
        if self.jobs_dir is not None:
            # Token first: a record that reads "queued" always has one.
            (self.jobs_dir / f"{job.job_id}.queued").touch()
            write_json_atomic(self.jobs_dir / f"{job.job_id}.json", job.to_dict())
        self._jobs[job.job_id] = job
        self._queue.put_nowait(job.job_id)
        metrics().counter("serve.jobs.submitted").inc()
        logger.info("job.submitted %s", kv(job_id=job.job_id, kind=kind))
        self._evict()
        return job

    def get(self, job_id: str) -> Job:
        if self.jobs_dir is not None:
            return read_job(self.jobs_dir / f"{job_id}.json")
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(job_id) from None

    def jobs(self) -> List[Job]:
        """Every retained job (the whole fleet's), oldest submission first."""
        if self.jobs_dir is None:
            return list(self._jobs.values())
        found = []
        for path in self.jobs_dir.glob("*.json"):
            try:
                found.append(read_job(path))
            except UnknownJobError:
                continue  # a corrupt record: list the others
        return sorted(found, key=lambda job: job.submitted_unix)

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job; running/settled jobs are left untouched.

        Returns the job either way — callers inspect ``status`` to see
        whether the cancel took effect.
        """
        job = self.get(job_id)
        if job.status == QUEUED and self._claim(job_id):
            self._settle(job, CANCELLED)
            logger.info("job.cancelled %s", kv(job_id=job_id))
        return job

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {
            QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0, CANCELLED: 0
        }
        for job in self.jobs():
            out[job.status] = out.get(job.status, 0) + 1
        return out

    @property
    def active(self) -> int:
        """Jobs currently occupying a worker."""
        return self._running

    # -- internals -------------------------------------------------------------

    async def _worker(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            job_id = await self._queue.get()
            job = self._jobs.get(job_id)
            if job is None or job.status != QUEUED:
                continue  # cancelled (or evicted) while queued
            if not self._claim(job_id):
                # A cancel, on any worker, won the token and settled the record.
                job.status = CANCELLED
                continue
            job.status = RUNNING
            job.started_unix = time.time()
            start = perf_counter()  # the job's one clock
            self._publish(job)
            self._running += 1
            metrics().gauge("serve.jobs.running").set(self._running)

            def run(job: Job = job) -> Any:
                # Bind the submitter's trace id in the executor thread
                # (run_in_executor does not carry contextvars across).
                with trace_scope(job.trace_id):
                    return self.runner(job.kind, dict(job.params))

            try:
                result = await loop.run_in_executor(self.executor, run)
            except asyncio.CancelledError:
                self._settle(
                    job, FAILED, "server shut down mid-job", perf_counter() - start
                )
                raise
            except Exception as exc:  # noqa: BLE001 - job failure is data
                self._settle(
                    job, FAILED, f"{type(exc).__name__}: {exc}", perf_counter() - start
                )
            else:
                job.result = result
                self._settle(job, DONE, elapsed_s=perf_counter() - start)
            finally:
                # In a finally so the CancelledError path (worker torn
                # down mid-job) cannot leave the exported gauge stuck at
                # its pre-cancel value.
                self._running -= 1
                metrics().gauge("serve.jobs.running").set(self._running)

    def _settle(
        self,
        job: Job,
        status: str,
        error: Optional[str] = None,
        elapsed_s: Optional[float] = None,
    ) -> None:
        """Record *job*'s outcome; *elapsed_s* is the run time of a job that ran.

        One measurement feeds the ``serve.jobs.duration_s`` histogram, the
        ``job.settled`` log line and :attr:`on_settled`.  A job cancelled
        before it ran logs its time since submission instead.
        """
        job.status = status
        job.error = error
        job.finished_unix = time.time()
        metrics().counter(f"serve.jobs.{status}").inc()
        if elapsed_s is not None:
            metrics().histogram("serve.jobs.duration_s").observe(elapsed_s)
            if self.on_settled is not None:
                self.on_settled(job, elapsed_s)
        logger.info(
            "job.settled %s",
            kv(
                job_id=job.job_id,
                status=status,
                elapsed_s=(
                    elapsed_s
                    if elapsed_s is not None
                    else job.finished_unix - job.submitted_unix
                ),
            ),
        )
        self._publish(job)
        self._evict()

    def _claim(self, job_id: str) -> bool:
        """Take a queued job's token; ``False`` if a start or cancel won it."""
        if self.jobs_dir is None:
            return True
        try:
            (self.jobs_dir / f"{job_id}.queued").unlink()
        except FileNotFoundError:
            return False
        return True

    def _publish(self, job: Job) -> None:
        """Rewrite *job*'s record in the fleet directory (fleet mode only)."""
        if self.jobs_dir is None:
            return
        try:
            write_json_atomic(self.jobs_dir / f"{job.job_id}.json", job.to_dict())
        except OSError as exc:  # other workers see the last state written
            logger.warning(
                "job.publish_failed %s", kv(job_id=job.job_id, error=str(exc))
            )

    def _evict(self) -> None:
        """Drop the oldest settled jobs beyond the history bound."""
        settled = [j.job_id for j in self._jobs.values() if j.settled]
        for job_id in settled[: max(0, len(settled) - self.history)]:
            del self._jobs[job_id]
            if self.jobs_dir is not None:
                (self.jobs_dir / f"{job_id}.json").unlink(missing_ok=True)
