"""The in-memory response cache.

:class:`LruCache` is a bounded response cache keyed by the canonical
request payload.  It holds only answers whose keys come from open sets
(``/evaluate``, ``/wall/whatif`` and ``/attribute`` carry request
floats); answers keyed by names from finite sets live in the process
memo (:mod:`repro.memo`).  Repeated identical queries (a dashboard
polling the same what-if scenario, a notebook re-asking one kernel's
Fig 14 attribution) are answered without touching the model at all.
The serving event loop is its only reader and writer.
It sits *over* the persistent :class:`repro.accel.sweep.ScheduleCache`,
which still de-duplicates the expensive scheduling work across
distinct-but-structurally-equal design points on a miss.  Its traffic
goes to the process metrics registry (``serve.cache.response.*``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Tuple

from repro.obs.metrics import metrics

__all__ = ["LruCache"]


class LruCache:
    """Bounded least-recently-used map counting hits and misses in metrics.

    ``capacity <= 0`` disables the cache (every lookup misses, nothing is
    stored), so one code path serves both cached and uncached modes.
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        """``(found, value)``; a hit refreshes the entry's recency."""
        if self.capacity > 0:
            try:
                value = self._entries[key]
            except KeyError:
                pass
            else:
                self._entries.move_to_end(key)
                metrics().counter("serve.cache.response.hits").inc()
                return True, value
        metrics().counter("serve.cache.response.misses").inc()
        return False, None

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity <= 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)
