"""Flight recorder: a bounded ring of recent request records.

Operators of a live fleet need something between ``/metrics`` aggregates
and reading code: *which* requests were slow, *where* each one spent its
time, and how the requests of one trace hung together across workers.
The :class:`FlightRecorder` keeps the last N requests (route, status,
duration, trace id, top spans, worker) in a ``deque`` ring — O(1) record,
oldest evicted first — and the ``/debug/requests``, ``/debug/slow``, and
``/debug/trace/{id}`` endpoints expose it.  Under a supervisor each
worker also publishes its ring to the fleet directory, and the endpoints
merge the other workers' published rows into the answer (METHODOLOGY §15).

:func:`chrome_trace` turns one trace's records — possibly gathered from
several worker processes — into Chrome trace-event JSON with flow arrows
linking them, so a trace that touched several workers renders as one
timeline in Perfetto.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence

from repro.obs.trace import Span

__all__ = ["FlightRecorder", "RequestRecord", "chrome_trace"]

#: Spans retained per record: the longest ones explain the latency; a
#: pathological request cannot bloat the ring past this.
MAX_SPANS_PER_RECORD = 64


def _span_dict(s: Span) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "name": s.name,
        "start_s": s.start_s,
        "duration_s": s.duration_s,
        "pid": s.pid,
        "tid": s.tid,
        "depth": s.depth,
    }
    if s.attrs:
        out["attrs"] = dict(s.attrs)
    return out


@dataclass
class RequestRecord:
    """One finished request as the flight recorder remembers it."""

    trace_id: str
    route: str
    method: str
    path: str
    status: int
    duration_s: float
    start_unix: float
    client: str = ""
    worker: Optional[int] = None
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "route": self.route,
            "method": self.method,
            "path": self.path,
            "status": self.status,
            "duration_s": self.duration_s,
            "start_unix": self.start_unix,
            "client": self.client,
            "worker": self.worker,
            "spans": self.spans,
        }


class FlightRecorder:
    """Bounded, thread-safe ring buffer of :class:`RequestRecord` rows.

    ``capacity`` bounds memory for a long-running server: the ring holds
    the newest *capacity* records and silently evicts the oldest.  A
    trace therefore stays resolvable for as long as its records survive
    eviction — the recorder is a debugging window, not an archive.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ring: Deque[RequestRecord] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()

    def record(
        self,
        trace_id: str,
        route: str,
        method: str,
        path: str,
        status: int,
        duration_s: float,
        start_unix: Optional[float] = None,
        client: str = "",
        worker: Optional[int] = None,
        spans: Sequence[Span] = (),
    ) -> RequestRecord:
        """Append one finished request; returns the stored record."""
        kept = sorted(spans, key=lambda s: s.duration_s, reverse=True)
        kept = sorted(kept[:MAX_SPANS_PER_RECORD], key=lambda s: s.start_s)
        row = RequestRecord(
            trace_id=trace_id,
            route=route,
            method=method,
            path=path,
            status=int(status),
            duration_s=float(duration_s),
            start_unix=time.time() if start_unix is None else float(start_unix),
            client=client,
            worker=worker,
            spans=[_span_dict(s) for s in kept],
        )
        with self._lock:
            self._ring.append(row)
        return row

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def tail(self, n: int = 50) -> List[RequestRecord]:
        """The newest *n* records, oldest first."""
        with self._lock:
            rows = list(self._ring)
        return rows[-max(0, int(n)):]

    def slowest(self, n: int = 20) -> List[RequestRecord]:
        """The *n* longest-running retained records, slowest first."""
        with self._lock:
            rows = list(self._ring)
        rows.sort(key=lambda r: r.duration_s, reverse=True)
        return rows[: max(0, int(n))]

    def trace(self, trace_id: str) -> List[RequestRecord]:
        """Every retained record of *trace_id*, oldest first."""
        with self._lock:
            return [r for r in self._ring if r.trace_id == trace_id]


def chrome_trace(
    trace_id: str, records: Iterable[Dict[str, Any]]
) -> Dict[str, Any]:
    """One trace's records (dict form, any worker) as a Chrome trace.

    Spans become complete ``"ph": "X"`` events on ``(worker, tid)``
    tracks; each worker gets a ``process_name`` metadata row; and flow
    events (``s``/``t``/``f`` sharing the trace id) draw arrows from record
    to record, so a submit, its job, and polls answered by other workers
    render as one connected request.
    Span timestamps are machine-wide ``CLOCK_MONOTONIC``, so rebasing to
    the earliest span aligns every process on a shared timeline.
    """
    rows = sorted(records, key=lambda r: float(r.get("start_unix") or 0.0))
    events: List[Dict[str, Any]] = []
    starts: List[float] = [
        float(s["start_s"]) for r in rows for s in (r.get("spans") or [])
    ]
    epoch = min(starts) if starts else 0.0
    seen_pids: Dict[int, str] = {}
    anchors: List[float] = []  # one flow anchor (ts µs) per record with spans
    pids: List[int] = []
    for row in rows:
        spans = row.get("spans") or []
        worker = row.get("worker")
        label = "single" if worker is None else f"worker {worker}"
        first_ts: Optional[float] = None
        pid = 0
        for s in spans:
            pid = int(s.get("pid", 0))
            ts = (float(s["start_s"]) - epoch) * 1e6
            if first_ts is None or ts < first_ts:
                first_ts = ts
            if pid not in seen_pids:
                seen_pids[pid] = label
                events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": f"repro serve [{label}]"},
                    }
                )
            args = dict(s.get("attrs") or {})
            args["trace_id"] = trace_id
            args["route"] = row.get("route")
            events.append(
                {
                    "name": s.get("name", "span"),
                    "cat": "repro",
                    "ph": "X",
                    "ts": ts,
                    "dur": float(s.get("duration_s", 0.0)) * 1e6,
                    "pid": pid,
                    "tid": int(s.get("tid", 0)),
                    "args": args,
                }
            )
        if first_ts is not None:
            anchors.append(first_ts)
            pids.append(pid)
    if len(anchors) > 1:
        for i, (ts, pid) in enumerate(zip(anchors, pids)):
            phase = "s" if i == 0 else ("f" if i == len(anchors) - 1 else "t")
            event: Dict[str, Any] = {
                "name": "request",
                "cat": "repro.flow",
                "ph": phase,
                "ts": ts,
                "pid": pid,
                "tid": 0,
                "id": trace_id,
            }
            if phase == "f":
                event["bp"] = "e"
            events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.serve.debug", "trace_id": trace_id},
    }
