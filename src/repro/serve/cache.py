"""The in-memory response cache.

:class:`LruCache` is a bounded response cache keyed by the canonical
request payload.  Repeated identical queries (the common case for a
dashboard polling the same what-if scenario) are answered without
touching the model at all.  It sits *over* the persistent
:class:`repro.accel.sweep.ScheduleCache`, which still de-duplicates the
expensive scheduling work across distinct-but-structurally-equal design
points on a miss.  Its traffic goes to the process metrics registry
(``serve.cache.*``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Tuple

from repro.obs.metrics import metrics

__all__ = ["LruCache"]


class LruCache:
    """Bounded least-recently-used map with hit/miss accounting.

    ``capacity <= 0`` disables the cache (every lookup misses, nothing is
    stored), so one code path serves both cached and uncached modes.
    """

    def __init__(self, capacity: int, name: str = "response"):
        self.capacity = int(capacity)
        self.name = name
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        """``(found, value)``; a hit refreshes the entry's recency."""
        if self.capacity > 0:
            try:
                value = self._entries[key]
            except KeyError:
                pass
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                metrics().counter(f"serve.cache.{self.name}.hits").inc()
                return True, value
        self.misses += 1
        metrics().counter(f"serve.cache.{self.name}.misses").inc()
        return False, None

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity <= 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return self.capacity > 0 and key in self._entries
