"""One process-wide memo of the model's pure intermediates.

Export, check and serve all read the same derived facts: each technology
backend's fitted model and its Figs 15-16 wall reports, the Table V case
studies, the named case studies, the reference datasheet population and
the model refitted over it, and a server's traced kernels, artifact
payloads and ``/csr`` payloads.  Each is a pure function of names, so a
process computes it once and keeps it here.  A forked ``repro serve``
worker inherits whatever the supervisor stored before the fork.

Keys are tuples of names drawn from finite sets (workload abbreviations,
study names, Table V domains, artifact names, a backend's name plus its
parameter hash), never request values or model objects, so the memo
needs no bound.

Builds are single-flight: the first thread to miss a key builds it, and
every later caller of that key waits for that build instead of starting
its own, so each key is built once per process.  Builds nest (a chiplet
model builds the cmos model; wall reports build models and studies), so
the lock is never held while a build runs, and a build may call
:func:`memo` for *other* keys.  Nesting runs one way only, from a
derived fact down to what it is derived from, so threads waiting on
each other's keys cannot form a cycle.  A build that re-enters its own
key would wait on itself; it raises :class:`RuntimeError` instead.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, Tuple, TypeVar

__all__ = ["memo", "peek"]

T = TypeVar("T")

_VALUES: Dict[Hashable, Any] = {}
#: Key -> (the thread building it, an event set when that build ends).
_BUILDING: Dict[Hashable, Tuple[int, threading.Event]] = {}
_LOCK = threading.Lock()


def memo(key: Hashable, build: Callable[[], T]) -> T:
    """The value stored under *key*; *build* makes it on the first call.

    A caller that misses *key* while another thread builds it waits for
    that build.  A build that raises stores nothing, and the exception
    goes only to the thread whose build raised it; its waiters wake and
    miss the key again, as if they had just arrived: one of them builds
    it, and the rest wait for that build.
    """
    while True:
        with _LOCK:
            if key in _VALUES:
                return _VALUES[key]
            if key not in _BUILDING:
                done = threading.Event()
                _BUILDING[key] = (threading.get_ident(), done)
                break
            owner, done = _BUILDING[key]
            if owner == threading.get_ident():
                raise RuntimeError(f"memo key {key!r} re-entered by its own build")
        done.wait()
    try:
        value = build()
        with _LOCK:
            _VALUES[key] = value
        return value
    finally:
        with _LOCK:
            del _BUILDING[key]
        done.set()


def peek(key: Hashable) -> Tuple[bool, Any]:
    """``(True, value)`` when *key* is stored, else ``(False, None)``.

    Never builds or waits, so a caller that must not block (the serve
    event loop) can answer a hit at once and send a miss to :func:`memo`
    elsewhere.
    """
    with _LOCK:
        if key in _VALUES:
            return True, _VALUES[key]
    return False, None
