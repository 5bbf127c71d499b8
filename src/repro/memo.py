"""One process-wide memo of the model's pure intermediates.

Export, check and serve all read the same derived facts: each technology
backend's fitted model and its Figs 15-16 wall reports, the Table V case
studies, the named case studies, and a server's traced kernels, artifact
payloads and ``/csr`` payloads.  Each is a pure function of names, so a
process computes it once and keeps it here.  A forked ``repro serve``
worker inherits whatever the supervisor stored before the fork.

Keys are tuples of names drawn from finite sets (workload abbreviations,
study names, Table V domains, artifact names, a backend's name plus its
parameter hash), never request values or model objects, so the memo
needs no bound.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, Tuple, TypeVar

__all__ = ["memo", "peek"]

T = TypeVar("T")

_VALUES: Dict[Hashable, Any] = {}
_LOCK = threading.Lock()


def memo(key: Hashable, build: Callable[[], T]) -> T:
    """The value stored under *key*; *build* makes it on the first call.

    The lock is not held while *build* runs, because builds nest (a
    chiplet model builds the cmos model; wall reports build models and
    studies).  Threads that miss the same cold key may each build it:
    the first value stored wins, and every caller gets that value.
    """
    with _LOCK:
        if key in _VALUES:
            return _VALUES[key]
    value = build()
    with _LOCK:
        return _VALUES.setdefault(key, value)


def peek(key: Hashable) -> Tuple[bool, Any]:
    """``(True, value)`` when *key* is stored, else ``(False, None)``.

    Never builds, so a caller that must not block (the serve event loop)
    can answer a hit at once and send a miss to :func:`memo` elsewhere.
    """
    with _LOCK:
        if key in _VALUES:
            return True, _VALUES[key]
    return False, None
