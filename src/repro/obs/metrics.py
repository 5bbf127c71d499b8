"""Process-wide registry of named counters, gauges, and histograms.

Instrumented code publishes what it is doing under stable dotted names —
``cache.schedules.hits``, ``engine.sweeps``, ``serve.latency_s`` — and
operators read the aggregate through :meth:`MetricsRegistry.snapshot`
(machine-readable) or :meth:`MetricsRegistry.render` (a table, surfaced
by the ``repro stats`` CLI command).

Three instrument kinds:

* :class:`Counter` — a monotonically increasing integer.
* :class:`Gauge` — a point-in-time float, last write wins.
* :class:`Histogram` — a log-linear-bucket latency distribution with
  :meth:`~Histogram.quantile` estimates.
  The timings that must be readable without a tracer (an engine
  operation's wall time, serve request latencies and job durations) are
  recorded in one with :meth:`Histogram.observe`, so operators see
  p50/p99, not just means (METHODOLOGY §15).  How a run's time splits
  into stages is read from spans (:mod:`repro.obs.trace`), not here.

Every instrument takes its own lock around mutation, so concurrent
threads in the serve harness never lose increments — the registry lock
only guards instrument *creation*.

The registry is per *process*.  The sweep engine folds its worker
processes' cache counters into the parent's ``engine.*`` metrics via
:class:`repro.accel.sweep.SweepStats`, so the parent snapshot covers the
whole run; the ``cache.*`` and ``batch.*`` families count only the
calling process's own traffic (see METHODOLOGY §10).

Snapshots are plain dicts, so they can be persisted as JSON and rendered
later with :meth:`MetricsRegistry.render`.  A histogram snapshot
round-trips through JSON bit-exactly: bucket counts are integers and the
sum is a float JSON preserves.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_bounds",
    "bucket_index",
    "metrics",
    "reset_metrics",
]


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> int:
        with self._lock:
            self.value += int(amount)
            return self.value


class Gauge:
    """A point-in-time float (last write wins)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> float:
        with self._lock:
            self.value = float(value)
            return self.value


# -- log-linear histogram buckets ---------------------------------------------
#
# Values are bucketed on a log-linear grid: each power-of-two octave above
# ``HIST_MIN`` is split into ``HIST_SUBBUCKETS`` equal linear sub-buckets,
# so the relative bucket width is bounded by ``1 / HIST_SUBBUCKETS`` of an
# octave (12.5% with 8 sub-buckets) across the whole dynamic range.
# Bucket 0 is the underflow bucket (everything at or below ``HIST_MIN``,
# including zero and negative durations from clock weirdness); the last
# index is the overflow bucket.  For second-scale latencies the grid spans
# 1µs .. ~1.1Ms with 321 possible buckets, stored sparsely.

HIST_MIN = 1e-6
HIST_SUBBUCKETS = 8
HIST_OCTAVES = 40
HIST_MAX_INDEX = HIST_OCTAVES * HIST_SUBBUCKETS + 1


def bucket_index(value: float) -> int:
    """The bucket index for *value* (0 = underflow, max = overflow)."""
    if not value > HIST_MIN:  # also catches NaN -> underflow
        return 0
    # frexp is exact: ratio = m * 2**e with m in [0.5, 1), so the octave
    # is e-1 and the position within it is 2*m in [1, 2) — no log() edge
    # cases at the power-of-two boundaries.
    m, e = math.frexp(value / HIST_MIN)
    octave = e - 1
    if octave >= HIST_OCTAVES:
        return HIST_MAX_INDEX
    sub = int((2.0 * m - 1.0) * HIST_SUBBUCKETS)
    if sub >= HIST_SUBBUCKETS:  # 2*m rounded up to 2.0 at the edge
        sub = HIST_SUBBUCKETS - 1
    return 1 + octave * HIST_SUBBUCKETS + sub


def bucket_bounds(index: int) -> "tuple[float, float]":
    """``(lower, upper]`` value bounds of bucket *index* in seconds."""
    if index <= 0:
        return 0.0, HIST_MIN
    if index >= HIST_MAX_INDEX:
        return HIST_MIN * 2.0 ** HIST_OCTAVES, math.inf
    octave, sub = divmod(index - 1, HIST_SUBBUCKETS)
    base = HIST_MIN * 2.0 ** octave
    return (
        base * (1.0 + sub / HIST_SUBBUCKETS),
        base * (1.0 + (sub + 1) / HIST_SUBBUCKETS),
    )


class Histogram:
    """A latency distribution over log-linear buckets.

    ``observe`` is O(1) and lock-cheap (a frexp, a dict increment); the
    exact min/max/sum ride along so quantile estimates can be clamped to
    the observed range.  ``quantile`` returns the upper bound of the
    bucket holding the requested rank, clamped to ``[min, max]`` — always
    within one bucket width (≤ 12.5% relative) of the true quantile.
    """

    __slots__ = ("count", "sum_s", "min_s", "max_s", "buckets", "_lock")

    def __init__(self) -> None:
        self.count = 0
        self.sum_s = 0.0
        self.min_s: Optional[float] = None
        self.max_s: Optional[float] = None
        self.buckets: Dict[int, int] = {}
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        value = float(seconds)
        index = bucket_index(value)
        with self._lock:
            self.count += 1
            self.sum_s += value
            if self.min_s is None or value < self.min_s:
                self.min_s = value
            if self.max_s is None or value > self.max_s:
                self.max_s = value
            self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean_s(self) -> float:
        return self.sum_s / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (0..1) of the observed values."""
        with self._lock:
            if not self.count:
                return 0.0
            need = min(self.count, max(1, math.ceil(q * self.count)))
            cumulative = 0
            index = HIST_MAX_INDEX
            for index in sorted(self.buckets):
                cumulative += self.buckets[index]
                if cumulative >= need:
                    break
            _, upper = bucket_bounds(index)
            low = self.min_s if self.min_s is not None else 0.0
            high = self.max_s if self.max_s is not None else upper
            return min(max(upper, low), high)

    def absorb_entry(self, entry: Dict[str, object]) -> None:
        """Merge one snapshot entry (the JSON shape) into this histogram.

        Everything is parsed before anything is applied, so a malformed
        entry raises without half-applying.
        """
        count = int(entry.get("count", 0))  # type: ignore[arg-type]
        total = float(entry.get("sum", 0.0))  # type: ignore[arg-type]
        low = entry.get("min")
        low = None if low is None else float(low)  # type: ignore[arg-type]
        high = entry.get("max")
        high = None if high is None else float(high)  # type: ignore[arg-type]
        buckets = entry.get("buckets") or {}
        if not isinstance(buckets, dict):
            raise TypeError("histogram buckets must be a dict")
        parsed = {int(key): int(value) for key, value in buckets.items()}
        if count < 0 or any(v < 0 for v in parsed.values()):
            raise ValueError("negative histogram count")
        with self._lock:
            self.count += count
            self.sum_s += total
            if low is not None:
                self.min_s = low if self.min_s is None else min(self.min_s, low)
            if high is not None:
                self.max_s = high if self.max_s is None else max(self.max_s, high)
            for index, value in parsed.items():
                self.buckets[index] = self.buckets.get(index, 0) + value

    def snapshot_entry(self) -> Dict[str, object]:
        """This histogram as the JSON-safe snapshot shape."""
        with self._lock:
            return {
                "type": "histogram",
                "count": self.count,
                "sum": self.sum_s,
                "min": self.min_s,
                "max": self.max_s,
                "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
            }


class MetricsRegistry:
    """Named metric instruments, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            with self._lock:
                return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(name, Histogram())

    def reset(self) -> None:
        """Drop every instrument (tests, or a fresh CLI invocation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict view: ``name -> {"type", "value", ...}``, JSON-safe."""
        out: Dict[str, Dict[str, object]] = {}
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        for name, counter in counters:
            out[name] = {"type": "counter", "value": counter.value}
        for name, gauge in gauges:
            out[name] = {"type": "gauge", "value": gauge.value}
        for name, histogram in histograms:
            out[name] = histogram.snapshot_entry()
        return out

    def render(self, snapshot: Optional[Dict[str, Dict[str, object]]] = None) -> str:
        """Human-readable table of *snapshot* (default: the live registry)."""
        snap = snapshot if snapshot is not None else self.snapshot()
        if not snap:
            return "(no metrics recorded)"
        lines: List[str] = []
        width = max(len(name) for name in snap)
        for name in sorted(snap):
            entry = snap[name]
            kind = entry.get("type") if isinstance(entry, dict) else None
            if kind == "histogram":
                scratch = Histogram()
                try:
                    scratch.absorb_entry(entry)
                except (TypeError, ValueError):
                    value = "(malformed histogram)"
                else:
                    value = (
                        f"{scratch.sum_s:.4f}s over {scratch.count} calls "
                        f"(p50 {1e3 * scratch.quantile(0.5):.3f} ms, "
                        f"p99 {1e3 * scratch.quantile(0.99):.3f} ms)"
                    )
            elif kind in ("counter", "gauge"):
                value = f"{entry.get('value', 0)}"
            else:
                continue  # a kind this version does not record
            lines.append(f"{name:<{width}}  {kind:<7}  {value}")
        return "\n".join(lines) or "(no metrics recorded)"


# -- the process-wide registry ------------------------------------------------

_REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-wide default registry instrumented code publishes to."""
    return _REGISTRY


def reset_metrics() -> None:
    """Clear the process-wide registry (test isolation, CLI startup)."""
    _REGISTRY.reset()
