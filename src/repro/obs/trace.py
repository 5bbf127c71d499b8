"""Nested span tracing with Chrome trace-event export.

A :class:`Tracer` records :class:`Span` rows — name, monotonic start time,
duration, process id, thread id, nesting depth, and a small attribute
dict.  Spans are opened through the module-level :func:`span` context
manager, which is a shared no-op object while no tracer is installed, so
instrumented hot loops (one span per design point) cost almost nothing in
ordinary runs.

Timestamps come from :func:`time.monotonic`.  On Linux that is
``CLOCK_MONOTONIC``, which is machine-wide, so spans recorded inside the
engine's worker processes line up with the parent's on a shared timeline;
the engine ships each chunk's finished spans back with the chunk result
and the parent :meth:`Tracer.absorb`\\ s them.

:meth:`Tracer.export_chrome` writes the Chrome trace-event format
(``{"traceEvents": [...]}``, one complete ``"ph": "X"`` event per span,
microsecond units) understood by Perfetto and ``chrome://tracing``.

Request tracing (METHODOLOGY §15) rides on top: :func:`trace_scope`
binds a trace id in a :class:`contextvars.ContextVar`, every span
finished inside the scope is stamped with it, and
:meth:`Tracer.take` pulls one trace's spans back out so the serve layer
can ship them across worker processes and stitch a multi-hop request
into a single timeline.
"""

from __future__ import annotations

import contextvars
import json
import os
import re
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "Span",
    "Tracer",
    "current_trace_id",
    "get_tracer",
    "new_trace_id",
    "parse_traceparent",
    "set_tracer",
    "span",
    "trace_id_from_headers",
    "trace_scope",
]

AttrValue = Union[str, int, float, bool]


@dataclass(frozen=True)
class Span:
    """One finished span: a named interval on a (pid, tid) track.

    ``start_s`` is :func:`time.monotonic` seconds; ``depth`` is the
    nesting level within its thread at the time the span opened (0 for a
    top-level span).  Instances are plain picklable data so worker
    processes can ship them back to the parent.
    """

    name: str
    start_s: float
    duration_s: float
    pid: int
    tid: int
    depth: int
    attrs: Dict[str, AttrValue] = field(default_factory=dict)
    trace_id: Optional[str] = None

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def contains(self, other: "Span") -> bool:
        """Whether *other* lies within this span's interval (same track)."""
        return (
            self.pid == other.pid
            and self.tid == other.tid
            and self.start_s <= other.start_s
            and other.end_s <= self.end_s + 1e-9
        )


class _ActiveSpan:
    """Context manager recording one span on *tracer*."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, AttrValue]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._stack().append(self._name)
        self._start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.monotonic() - self._start
        stack = self._tracer._stack()
        stack.pop()
        self._tracer._finish(
            Span(
                name=self._name,
                start_s=self._start,
                duration_s=duration,
                pid=os.getpid(),
                tid=threading.get_ident(),
                depth=len(stack),
                attrs=self._attrs,
                trace_id=current_trace_id(),
            )
        )
        return False


class _NoopSpan:
    """Shared, stateless stand-in used while no tracer is installed."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopSpan()


# -- trace ids ----------------------------------------------------------------
#
# A trace id names one end-to-end request across processes.  The serve
# layer honors an incoming W3C ``traceparent`` header (or a bare
# ``X-Trace-Id``), mints an id otherwise, and binds it here so every span
# finished while handling the request — including inside executor threads,
# provided the caller copies the context — carries the id.

_TRACE_ID: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_trace_id", default=None
)

_TRACEPARENT_RE = re.compile(
    r"^[0-9a-f]{2}-([0-9a-f]{32})-[0-9a-f]{16}-[0-9a-f]{2}$"
)
_TRACE_ID_RE = re.compile(r"^[0-9a-zA-Z_.-]{1,64}$")


def new_trace_id() -> str:
    """Mint a 32-hex trace id (the W3C trace-id width)."""
    return uuid.uuid4().hex


def current_trace_id() -> Optional[str]:
    """The trace id bound in this context, or ``None`` outside a request."""
    return _TRACE_ID.get()


def parse_traceparent(value: str) -> Optional[str]:
    """The 32-hex trace-id field of a W3C ``traceparent`` header, if valid."""
    match = _TRACEPARENT_RE.match(value.strip().lower())
    if match is None:
        return None
    trace_id = match.group(1)
    return None if trace_id == "0" * 32 else trace_id


def trace_id_from_headers(headers: Dict[str, str]) -> Optional[str]:
    """Extract a trace id from lower-cased *headers*, if one was sent.

    ``traceparent`` wins over ``x-trace-id``; a malformed value is treated
    as absent (the caller mints a fresh id) rather than rejected.
    """
    parent = headers.get("traceparent")
    if parent:
        parsed = parse_traceparent(parent)
        if parsed:
            return parsed
    bare = headers.get("x-trace-id", "").strip()
    if bare and _TRACE_ID_RE.match(bare):
        return bare
    return None


class trace_scope:
    """Bind *trace_id* for the dynamic extent of a ``with`` body.

    Re-entrant and exception-safe; ``trace_scope(None)`` explicitly
    clears the binding (a background worker starting unrelated work).
    """

    __slots__ = ("_trace_id", "_token")

    def __init__(self, trace_id: Optional[str]):
        self._trace_id = trace_id
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Optional[str]:
        self._token = _TRACE_ID.set(self._trace_id)
        return self._trace_id

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _TRACE_ID.reset(self._token)
            self._token = None
        return False


class Tracer:
    """Collects finished spans; safe for concurrent threads.

    One tracer lives in the parent process (installed by the CLI when
    ``--profile`` or ``--trace-out`` is given, or by a long-running
    server at startup); each worker process installs its own and the
    engine merges the workers' spans back with :meth:`absorb`.

    ``max_spans`` bounds the buffer for long-running servers: once full,
    the oldest spans are evicted.  The default (``None``) keeps every
    span, which is what one-shot CLI profiling wants.
    """

    def __init__(self, max_spans: Optional[int] = None) -> None:
        self._spans: Deque[Span] = deque(maxlen=max_spans)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------------

    def span(self, name: str, **attrs: AttrValue) -> _ActiveSpan:
        """Open a span; use as ``with tracer.span("schedule", partition=4):``."""
        return _ActiveSpan(self, name, attrs)

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _finish(self, finished: Span) -> None:
        with self._lock:
            self._spans.append(finished)

    def absorb(self, spans: Iterable[Span]) -> None:
        """Merge spans recorded elsewhere (worker processes) into this trace."""
        with self._lock:
            self._spans.extend(spans)

    def drain(self) -> List[Span]:
        """Remove and return every finished span (worker → parent shipping)."""
        with self._lock:
            drained = list(self._spans)
            self._spans.clear()
        return drained

    def take(self, trace_id: str) -> List[Span]:
        """Remove and return the spans stamped with *trace_id*.

        The serve layer calls this at the end of each request to move the
        request's spans into its flight recorder, so the shared ring stays
        small and a trace survives even after the tracer evicts.
        """
        with self._lock:
            taken = [s for s in self._spans if s.trace_id == trace_id]
            if taken:
                kept = [s for s in self._spans if s.trace_id != trace_id]
                self._spans.clear()
                self._spans.extend(kept)
        return taken

    @property
    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- reporting ------------------------------------------------------------

    def chrome_events(self) -> List[Dict[str, object]]:
        """Spans as Chrome trace-event ``"ph": "X"`` complete events.

        Timestamps are rebased to the earliest span so the trace starts
        near zero, and converted to the format's microsecond unit.
        """
        spans = self.spans
        if not spans:
            return []
        epoch = min(s.start_s for s in spans)
        events: List[Dict[str, object]] = []
        for s in sorted(spans, key=lambda s: s.start_s):
            args = dict(s.attrs)
            if s.trace_id:
                args["trace_id"] = s.trace_id
            events.append(
                {
                    "name": s.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": (s.start_s - epoch) * 1e6,
                    "dur": s.duration_s * 1e6,
                    "pid": s.pid,
                    "tid": s.tid,
                    "args": args,
                }
            )
        return events

    def export_chrome(self, path: Union[str, Path]) -> Path:
        """Write the trace as Chrome trace-event JSON and return the path."""
        # Imported lazily: provenance imports this module at load time.
        from repro.provenance.manifest import SCHEMA_VERSION

        path = Path(path)
        payload = {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "repro.obs.trace",
                "schema_version": SCHEMA_VERSION,
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return path

    def stage_rows(self) -> List[Dict[str, object]]:
        """Per-stage rows behind ``--profile``, largest self time first.

        Per span name: ``calls``; ``self_s``, the duration minus the time
        child spans on the same (pid, tid) track cover; ``total_s``, the
        inclusive duration; and ``share``, ``self_s`` as a percentage of
        wall time, the length of the union of all depth-0 spans.  In a
        serial run under one root span, ``self_s`` sums to the root's
        ``total_s`` and ``share`` to 100.  Worker spans ran in parallel,
        so with workers both sum past that, and a parent waiting on its
        workers shows the wait as self time.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        tracks: Dict[Tuple[int, int], List[int]] = {}
        for index, s in enumerate(spans):
            tracks.setdefault((s.pid, s.tid), []).append(index)
        for indices in tracks.values():
            # In start order (a parent before a child that starts with it),
            # a span's parent is the latest span opened one level up.
            indices.sort(key=lambda i: (spans[i].start_s, spans[i].depth))
            latest: Dict[int, int] = {}
            children: Dict[int, List[Tuple[float, float]]] = {}
            for index in indices:
                child = spans[index]
                parent_index = latest.get(child.depth - 1)
                if parent_index is not None:
                    parent = spans[parent_index]
                    start = max(parent.start_s, child.start_s)
                    end = min(parent.end_s, child.end_s)
                    if start < end:
                        children.setdefault(parent_index, []).append((start, end))
                latest[child.depth] = index
            for parent_index, intervals in children.items():
                covered[parent_index] = _union_length(intervals)

        totals: Dict[str, List[float]] = {}
        for index, s in enumerate(spans):
            bucket = totals.setdefault(s.name, [0, 0.0, 0.0])
            bucket[0] += 1
            bucket[1] += s.duration_s - covered[index]
            bucket[2] += s.duration_s
        wall = _union_length([(s.start_s, s.end_s) for s in spans if s.depth == 0])
        ordered = sorted(totals.items(), key=lambda item: (-item[1][1], item[0]))
        return [
            {
                "stage": name,
                "calls": int(calls),
                "self_s": self_s,
                "total_s": total_s,
                "share": 100.0 * self_s / wall if wall > 0.0 else 0.0,
            }
            for name, (calls, self_s, total_s) in ordered
        ]


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by *intervals* (overlaps counted once)."""
    total = 0.0
    current: Optional[List[float]] = None
    for start, end in sorted(intervals):
        if current is None or start > current[1]:
            if current is not None:
                total += current[1] - current[0]
            current = [start, end]
        else:
            current[1] = max(current[1], end)
    if current is not None:
        total += current[1] - current[0]
    return total


# -- the process-wide tracer --------------------------------------------------

_TRACER: Optional[Tracer] = None


def get_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is off."""
    return _TRACER


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or with ``None`` remove) the process-wide tracer."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def span(name: str, **attrs: AttrValue):
    """Open *name* on the installed tracer; no-op when tracing is off."""
    tracer = _TRACER
    if tracer is None:
        return _NOOP
    return tracer.span(name, **attrs)
