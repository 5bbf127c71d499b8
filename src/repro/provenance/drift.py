"""Cross-run comparison: golden-number drift and perf regressions.

Two runs of the same configuration must reproduce the same numbers — the
paper's argument is a chain of fitted scalars, so any silent change to a
Table III-V row or a Fig 3/13-16 quantity between runs is a correctness
event, not noise.  This module diffs two :class:`RunManifest`\\ s:

* **Golden numbers** — every numeric leaf of the golden artifacts
  (flattened to dotted-path names like ``fig15_16.3.projected_log``) is
  compared under one absolute/relative tolerance.  Exceeding it, or a
  quantity appearing/disappearing, is *drift*.
* **Perf** — the engine statistics recorded in each manifest (and, for
  benchmark history, ``BENCH_*.json`` entries) are compared under
  threshold-based regression flags: wall-clock blowups and persistent
  cache hit-rate drops are flagged but kept separate from drift, because
  timing varies across machines while golden numbers must not.

Runs recorded under a different :data:`SCHEMA_VERSION` are refused with a
:class:`ValidationError` — an incomparable layout must never be reported
as "zero drift".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.provenance.manifest import SCHEMA_VERSION, RunManifest

__all__ = [
    "DEFAULT_TOLERANCE",
    "GOLDEN_ARTIFACTS",
    "GOLDEN_PREFIXES",
    "is_golden_artifact",
    "DriftReport",
    "PerfFlag",
    "QuantityDrift",
    "Tolerance",
    "compare_bench_entries",
    "compare_golden",
    "compare_perf",
    "compare_runs",
    "flatten_scalars",
    "golden_numbers",
]

#: Artifacts whose scalars form the golden-number set (the ISSUE's
#: Table III-V and Fig 3/13-16 chain of fitted numbers).
GOLDEN_ARTIFACTS: Tuple[str, ...] = (
    "table3",
    "table4",
    "table5",
    "fig3a",
    "fig3b",
    "fig3c",
    "fig3d",
    "fig13",
    "fig14",
    "fig15_16",
)

#: Per-technology artifact families (dynamic names — one per registered
#: backend) whose scalars also join the golden set, so backend outputs
#: are drift-pinned exactly like the base ``cmos`` numbers.
GOLDEN_PREFIXES: Tuple[str, ...] = (
    "fig15_16_",
    "table5_",
    "csr_",
    "tech_",
)


def is_golden_artifact(name: str) -> bool:
    """Whether *name*'s scalars belong in the golden-number set."""
    return name in GOLDEN_ARTIFACTS or name.startswith(GOLDEN_PREFIXES)


@dataclass(frozen=True)
class Tolerance:
    """Drift tolerance: pass if |delta| <= abs OR rel."""

    rel: float = 1e-9
    abs: float = 1e-12

    def allows(self, a: float, b: float) -> bool:
        if a == b:  # covers +-inf equality and exact zeros
            return True
        if math.isnan(a) and math.isnan(b):
            return True
        if not (math.isfinite(a) and math.isfinite(b)):
            return False
        return math.isclose(a, b, rel_tol=self.rel, abs_tol=self.abs)


#: The default: golden numbers are deterministic float arithmetic, so two
#: runs of the same code/config/inputs must agree to rounding.
DEFAULT_TOLERANCE = Tolerance()


# -- golden-number extraction -------------------------------------------------


def flatten_scalars(payload: object, prefix: str = "") -> Dict[str, float]:
    """Every numeric leaf of a JSON-able payload, keyed by dotted path.

    Bools and strings are skipped (they are labels, not quantities); list
    indices become path components, so ordering changes surface as
    added/removed quantities rather than silent value swaps.
    """
    out: Dict[str, float] = {}

    def walk(value: object, path: str) -> None:
        if isinstance(value, bool):
            return
        if isinstance(value, (int, float)):
            out[path] = float(value)
        elif isinstance(value, dict):
            for key in value:
                walk(value[key], f"{path}.{key}" if path else str(key))
        elif isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                walk(item, f"{path}.{index}" if path else str(index))

    walk(payload, prefix)
    return out


def golden_numbers(payloads: Mapping[str, object]) -> Dict[str, float]:
    """Golden scalars of the artifacts present in *payloads*.

    *payloads* maps artifact name (``"fig13"``) to its JSON-able payload;
    artifacts outside :data:`GOLDEN_ARTIFACTS` (or the per-technology
    :data:`GOLDEN_PREFIXES` families) are ignored.
    """
    numbers: Dict[str, float] = {}
    for name in sorted(payloads):
        if is_golden_artifact(name):
            numbers.update(flatten_scalars(payloads[name], name))
    return numbers


# -- typed report -------------------------------------------------------------


@dataclass(frozen=True)
class QuantityDrift:
    """One golden number that moved beyond its tolerance."""

    name: str
    value_a: float
    value_b: float
    tolerance: Tolerance

    @property
    def abs_delta(self) -> float:
        return self.value_b - self.value_a

    @property
    def rel_delta(self) -> float:
        if self.value_a == 0.0:
            return math.inf if self.value_b != 0.0 else 0.0
        return (self.value_b - self.value_a) / abs(self.value_a)

    def describe(self) -> str:
        return (
            f"{self.name}: {self.value_a!r} -> {self.value_b!r} "
            f"(rel {self.rel_delta:+.3g}, tol rel={self.tolerance.rel:g})"
        )


@dataclass(frozen=True)
class PerfFlag:
    """One perf quantity compared across runs; ``regressed`` if flagged."""

    metric: str
    value_a: float
    value_b: float
    threshold: float
    regressed: bool
    detail: str

    def describe(self) -> str:
        status = "REGRESSED" if self.regressed else "ok"
        return f"[{status}] {self.metric}: {self.detail}"


@dataclass(frozen=True)
class DriftReport:
    """Typed outcome of comparing run *a* (baseline) against run *b*."""

    run_a: str
    run_b: str
    compared: int
    drifted: Tuple[QuantityDrift, ...]
    added: Tuple[str, ...]
    removed: Tuple[str, ...]
    perf: Tuple[PerfFlag, ...]

    @property
    def clean(self) -> bool:
        """No golden-number drift (perf flags are reported separately)."""
        return not (self.drifted or self.added or self.removed)

    @property
    def perf_regressed(self) -> bool:
        return any(flag.regressed for flag in self.perf)

    def describe(self) -> str:
        if self.clean:
            head = f"zero drift over {self.compared} golden numbers"
        else:
            head = (
                f"DRIFT: {len(self.drifted)} changed, {len(self.added)} added, "
                f"{len(self.removed)} removed (of {self.compared} compared)"
            )
        if self.perf:
            regressed = sum(1 for flag in self.perf if flag.regressed)
            head += f"; perf: {regressed}/{len(self.perf)} flags regressed"
        return head


# -- comparators --------------------------------------------------------------


def compare_golden(
    a: Mapping[str, float], b: Mapping[str, float]
) -> Tuple[int, List[QuantityDrift], List[str], List[str]]:
    """Diff two golden-number maps under :data:`DEFAULT_TOLERANCE`."""
    shared = sorted(set(a) & set(b))
    drifted = []
    for name in shared:
        if not DEFAULT_TOLERANCE.allows(float(a[name]), float(b[name])):
            drifted.append(
                QuantityDrift(
                    name, float(a[name]), float(b[name]), DEFAULT_TOLERANCE
                )
            )
    added = sorted(set(b) - set(a))
    removed = sorted(set(a) - set(b))
    return len(shared), drifted, added, removed


#: A run slower than baseline by more than this fraction is flagged.
ELAPSED_REGRESSION_THRESHOLD = 0.5

#: A persistent-cache hit rate lower than baseline by more than this
#: absolute drop is flagged.
HIT_RATE_DROP_THRESHOLD = 0.10


def _perf_fields(stats: Mapping[str, object]) -> Tuple[float, Optional[float]]:
    elapsed = float(stats.get("elapsed_s", 0.0) or 0.0)
    hits = float(stats.get("cache_hits", 0) or 0)
    misses = float(stats.get("cache_misses", 0) or 0)
    looked = hits + misses
    return elapsed, (hits / looked if looked else None)


def _compare_stats(
    stats_a: Mapping[str, object],
    stats_b: Mapping[str, object],
    elapsed_threshold: float,
    hit_rate_drop: float,
) -> List[PerfFlag]:
    flags: List[PerfFlag] = []
    elapsed_a, rate_a = _perf_fields(stats_a)
    elapsed_b, rate_b = _perf_fields(stats_b)
    if elapsed_a > 0.0 and elapsed_b > 0.0:
        ratio = elapsed_b / elapsed_a
        flags.append(
            PerfFlag(
                metric="elapsed_s",
                value_a=elapsed_a,
                value_b=elapsed_b,
                threshold=elapsed_threshold,
                regressed=ratio > 1.0 + elapsed_threshold,
                detail=(
                    f"{elapsed_a:.3f}s -> {elapsed_b:.3f}s "
                    f"({ratio:.2f}x, threshold {1.0 + elapsed_threshold:.2f}x)"
                ),
            )
        )
    if rate_a is not None and rate_b is not None:
        flags.append(
            PerfFlag(
                metric="cache_hit_rate",
                value_a=rate_a,
                value_b=rate_b,
                threshold=hit_rate_drop,
                regressed=(rate_a - rate_b) > hit_rate_drop,
                detail=(
                    f"{rate_a:.1%} -> {rate_b:.1%} "
                    f"(drop threshold {hit_rate_drop:.0%})"
                ),
            )
        )
    return flags


def compare_perf(
    manifest_a: RunManifest,
    manifest_b: RunManifest,
    elapsed_threshold: float = ELAPSED_REGRESSION_THRESHOLD,
    hit_rate_drop: float = HIT_RATE_DROP_THRESHOLD,
) -> List[PerfFlag]:
    """Threshold-compare the engine stats recorded in two manifests."""
    stats_a = manifest_a.engine.get("stats") if manifest_a.engine else None
    stats_b = manifest_b.engine.get("stats") if manifest_b.engine else None
    if not isinstance(stats_a, dict) or not isinstance(stats_b, dict):
        return []
    return _compare_stats(stats_a, stats_b, elapsed_threshold, hit_rate_drop)


def _require_same_schema(version_a: object, version_b: object, what: str) -> None:
    if version_a != SCHEMA_VERSION or version_b != SCHEMA_VERSION:
        raise ValidationError(
            f"cannot compare {what}: schema_version {version_a!r} vs "
            f"{version_b!r}; this build compares version {SCHEMA_VERSION}"
        )


def compare_runs(
    manifest_a: RunManifest,
    manifest_b: RunManifest,
    elapsed_threshold: float = ELAPSED_REGRESSION_THRESHOLD,
    hit_rate_drop: float = HIT_RATE_DROP_THRESHOLD,
) -> DriftReport:
    """Full drift report of run *b* against baseline run *a*.

    Raises :class:`ValidationError` when either run was recorded under a
    different provenance schema version.
    """
    _require_same_schema(
        manifest_a.schema_version, manifest_b.schema_version, "runs"
    )
    compared, drifted, added, removed = compare_golden(
        manifest_a.golden, manifest_b.golden
    )
    perf = compare_perf(
        manifest_a, manifest_b, elapsed_threshold, hit_rate_drop
    )
    return DriftReport(
        run_a=manifest_a.run_id,
        run_b=manifest_b.run_id,
        compared=compared,
        drifted=tuple(drifted),
        added=tuple(added),
        removed=tuple(removed),
        perf=tuple(perf),
    )


def compare_bench_entries(
    entry_a: Mapping[str, object],
    entry_b: Mapping[str, object],
    elapsed_threshold: float = ELAPSED_REGRESSION_THRESHOLD,
    hit_rate_drop: float = HIT_RATE_DROP_THRESHOLD,
) -> List[PerfFlag]:
    """Threshold-compare two ``BENCH_*.json`` perf entries.

    Entries written before the provenance subsystem carry no
    ``schema_version`` and are refused (:class:`ValidationError`) rather
    than mis-read.
    """
    _require_same_schema(
        entry_a.get("schema_version"), entry_b.get("schema_version"),
        "bench entries",
    )
    stats_a = entry_a.get("stats")
    stats_b = entry_b.get("stats")
    if not isinstance(stats_a, dict) or not isinstance(stats_b, dict):
        raise ValidationError("bench entries carry no 'stats' block")
    flags = _compare_stats(stats_a, stats_b, elapsed_threshold, hit_rate_drop)
    hits_a = float(stats_a.get("memo_hits", 0) or 0)
    misses_a = float(stats_a.get("memo_misses", 0) or 0)
    hits_b = float(stats_b.get("memo_hits", 0) or 0)
    misses_b = float(stats_b.get("memo_misses", 0) or 0)
    if hits_a + misses_a and hits_b + misses_b:
        rate_a = hits_a / (hits_a + misses_a)
        rate_b = hits_b / (hits_b + misses_b)
        flags.append(
            PerfFlag(
                metric="memo_hit_rate",
                value_a=rate_a,
                value_b=rate_b,
                threshold=hit_rate_drop,
                regressed=(rate_a - rate_b) > hit_rate_drop,
                detail=(
                    f"{rate_a:.1%} -> {rate_b:.1%} "
                    f"(drop threshold {hit_rate_drop:.0%})"
                ),
            )
        )
    return flags
