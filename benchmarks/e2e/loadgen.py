"""HTTP load generation and the latency statistics the benchmark reports.

One process drives the server with at most two threads, each owning one
keep-alive connection (``http.client``), so the generator never competes
with the server for more cores than the box has.

* :func:`closed_loop` -- every client sends its next request only after the
  previous reply arrived (callers that wait, like a notebook fanning out
  design points).  Latency is send-to-reply.
* :func:`open_loop` -- requests are due at seeded Poisson times whatever
  the server does (independent dashboard readers).  Latency is measured
  from the *due* time, so a stall also charges the wait it imposes on the
  requests queued behind it, and the generator reports how late it sent.

Failed, refused, unsent and unfinished requests count as ``+inf``
latency: they miss every latency limit.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: A request still unsent or unanswered this long after its step ended is
#: a failure.
GRACE_S = 5.0

#: Socket timeout of one request.
REQUEST_TIMEOUT_S = 30.0

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10

#: Serve-model ladder rung limits.
RUNG_P95_MS = 100.0
RUNG_ERROR_RATE = 0.01
RUNG_MAX_LATE_S = 1.0


@dataclass(frozen=True)
class Request:
    """One HTTP request of a seeded schedule."""

    family: str
    method: str
    path: str
    body: Optional[dict] = None
    #: Open loop: seconds after the step start when the request is due.
    due_s: float = 0.0


@dataclass
class Outcome:
    """What happened to one request."""

    request: Request
    status: int = 0
    latency_s: float = math.inf
    late_s: float = 0.0
    sent: bool = False
    data: object = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200 and math.isfinite(self.latency_s)


@dataclass
class StepResult:
    """Every outcome of one load step, in schedule order."""

    outcomes: List[Outcome] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    def latencies_s(self) -> List[float]:
        return [o.latency_s if o.ok else math.inf for o in self.outcomes]


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile; ``inf`` entries sort last."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(
    n: int, candidates: Sequence[float] = (50.0, 90.0, 95.0, 99.0, 99.9)
) -> Optional[float]:
    """Highest candidate percentile with ``MIN_BEYOND`` samples beyond it."""
    best = None
    for q in candidates:
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            best = q
    return best


def rung_verdict(step: StepResult) -> Dict[str, object]:
    """One open-loop rate's latencies and whether it passed: p95, errors
    and backlog (how late the last request went out)."""
    latencies = step.latencies_s()
    p95_ms = percentile(latencies, 95.0) * 1e3
    error_rate = step.failed / max(1, step.attempted)
    sent_late = [o.late_s for o in step.outcomes if o.sent]
    last_late_s = sent_late[-1] if sent_late else math.inf
    unsent = sum(1 for o in step.outcomes if not o.sent)
    passed = (
        p95_ms <= RUNG_P95_MS
        and error_rate <= RUNG_ERROR_RATE
        and unsent == 0
        and last_late_s < RUNG_MAX_LATE_S
    )
    return {
        "p50_ms": percentile(latencies, 50.0) * 1e3,
        "p95_ms": p95_ms,
        "error_rate": error_rate,
        "last_late_s": last_late_s,
        "lateness_p99_ms": percentile(sent_late, 99.0) * 1e3 if sent_late else math.inf,
        "unsent": unsent,
        "passed": passed,
    }


def max_rate(rungs: Sequence[Dict[str, object]]) -> float:
    """Highest ``rate_rps`` whose rung and every lower rung passed (0 if
    the first failed)."""
    best = 0.0
    for rung in rungs:
        if not rung["passed"]:
            break
        best = float(rung["rate_rps"])
    return best


# -- transport ----------------------------------------------------------------


class Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int):
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def send(self, request: Request, outcome: Outcome) -> None:
        """Send *request*; fill status, parsed body and error."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
        body = None if request.body is None else json.dumps(request.body)
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(request.method, request.path, body=body, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
            outcome.status = response.status
            outcome.data = json.loads(raw) if raw else None
        except (OSError, http.client.HTTPException, ValueError) as exc:
            outcome.status = 0
            outcome.error = f"{type(exc).__name__}: {exc}"
            self.close()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _run_threads(target: Callable[[int], None], clients: int) -> None:
    threads = [threading.Thread(target=target, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(
    port: int,
    requests: Sequence[Request],
    clients: int,
    seconds: Optional[float] = None,
) -> StepResult:
    """Send *requests* in order from *clients* waiting clients.

    With *seconds*, clients stop taking new requests once that long has
    passed; the untaken tail is not attempted.  Without it every request
    is sent.
    """
    clock = time.perf_counter
    lock = threading.Lock()
    taken: List[Outcome] = []
    start = clock()

    def worker(_index: int) -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    if len(taken) >= len(requests):
                        return
                    if seconds is not None and clock() - start >= seconds:
                        return
                    outcome = Outcome(requests[len(taken)])
                    taken.append(outcome)
                sent = clock()
                outcome.sent = True
                client.send(outcome.request, outcome)
                if outcome.status == 200:
                    outcome.latency_s = clock() - sent
        finally:
            client.close()

    _run_threads(worker, clients)
    return StepResult(outcomes=taken, elapsed_s=clock() - start)


def open_loop(
    port: int,
    requests: Sequence[Request],
    clients: int,
    step_s: float,
) -> StepResult:
    """Send each request at its ``due_s`` over *clients* connections.

    A request is taken by whichever connection is free first, in due
    order; if both are busy it goes out late.  Anything not sent by
    ``step_s + GRACE_S`` is recorded unsent, and a reply arriving after
    that deadline is a failure.
    """
    clock = time.perf_counter
    lock = threading.Lock()
    outcomes = [Outcome(request) for request in requests]
    cursor = [0]
    start = clock()
    deadline = step_s + GRACE_S

    def worker(_index: int) -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    if cursor[0] >= len(outcomes):
                        return
                    outcome = outcomes[cursor[0]]
                    cursor[0] += 1
                due = outcome.request.due_s
                wait = due - (clock() - start)
                if wait > 0:
                    time.sleep(wait)
                now = clock() - start
                if now > deadline:
                    outcome.error = "unsent at step end + grace"
                    continue
                outcome.sent = True
                outcome.late_s = max(0.0, now - due)
                client.send(outcome.request, outcome)
                finished = clock() - start
                if outcome.status == 200 and finished <= deadline:
                    outcome.latency_s = finished - due
                elif outcome.status == 200:
                    outcome.error = "finished after step end + grace"
        finally:
            client.close()

    _run_threads(worker, clients)
    return StepResult(outcomes=outcomes, elapsed_s=clock() - start)
