"""E-F13: Fig 13 — 3D stencil power/timing/CMOS design-space sweep.

Sweeps the full Table III grid and reports the runtime-power Pareto
frontier and the energy-efficiency optimum (paper: 5nm, high partitioning,
high-but-not-extreme simplification).

The sweep runs through :class:`repro.accel.engine.SweepEngine` with a
fresh persistent cache: the benchmarked run is cold, then a warm rerun
checks the acceptance property that cached schedules make the same sweep
cheaper (100% hit rate, and a tracer around it records no ``schedule``
span).  A cold run of the per-point scalar oracle (``evaluate_design``
over ``ScheduleCache.get``) pins the zero-drift contract — the engine's
batch path must reproduce the scalar reports bit-for-bit — and reports
the cold-sweep speedup.
"""

from time import perf_counter

from conftest import emit

from repro.accel.engine import SweepEngine
from repro.accel.power import evaluate_design
from repro.accel.resources import ResourceLibrary
from repro.accel.sweep import ScheduleCache, default_design_grid
from repro.obs.trace import Tracer, set_tracer
from repro.reporting.tables import render_rows
from repro.workloads import s3d


def test_fig13_stencil_sweep(benchmark, tmp_path):
    kernel = s3d.build()
    cache_dir = tmp_path / "dse-cache"
    grid = default_design_grid()

    def run_cold():
        return SweepEngine(jobs=1, cache_dir=cache_dir).sweep(kernel, grid)

    result = benchmark.pedantic(run_cold, rounds=1, iterations=1)

    # Warm rerun: same engine config, populated cache. The schedules all
    # come from disk, so the scheduler never runs and wall time drops.
    tracer = Tracer()
    set_tracer(tracer)
    try:
        warm_start = perf_counter()
        warm = SweepEngine(jobs=1, cache_dir=cache_dir).sweep(kernel, grid)
        warm_wall = perf_counter() - warm_start
    finally:
        set_tracer(None)
    assert warm.reports == result.reports
    assert warm.stats.cache_hits > 0
    assert warm.stats.hit_rate == 1.0
    assert not [s for s in tracer.spans if s.name == "schedule"]
    emit(
        "Fig 13 engine stats",
        f"cold: {result.stats.describe()}\n"
        f"warm: {warm.stats.describe()}\n"
        f"warm-cache speedup: {result.stats.elapsed_s / warm_wall:.1f}x",
    )

    # Scalar-oracle cold run: the engine's batch path (benchmarked above)
    # must be bit-identical and measurably faster.
    library = ResourceLibrary()
    scalar_cache = ScheduleCache(kernel, library)
    scalar_start = perf_counter()
    scalar = tuple(
        evaluate_design(kernel, d, library, precomputed=scalar_cache.get(d))
        for d in grid
    )
    scalar_wall = perf_counter() - scalar_start
    assert scalar == result.reports  # zero drift vs the oracle
    speedup = scalar_wall / result.stats.elapsed_s
    emit(
        "Fig 13 vectorized vs scalar oracle",
        f"scalar cold: {len(scalar)} design points in {scalar_wall:.3f}s\n"
        f"cold-sweep speedup: {speedup:.1f}x",
    )
    assert speedup > 2.0

    frontier = result.pareto_frontier()
    emit(
        f"Fig 13: {len(result)} design points; runtime-power frontier",
        render_rows([
            {
                "design": r.design.describe(),
                "runtime_ns": r.runtime_s * 1e9,
                "power_w": r.power_w,
            }
            for r in frontier
        ]),
    )
    best = result.best_energy_efficiency()
    emit(
        "Fig 13 optimum",
        f"best energy efficiency at {best.design.describe()} "
        "(paper: 5nm, highest non-tapering partitioning, highest "
        "non-diminishing simplification)",
    )
    assert best.design.node_nm == 5.0
    assert best.design.simplification >= 5

    # CMOS advancement reduces power at a fixed design point.
    by_key = {
        (r.design.node_nm, r.design.partition, r.design.simplification): r
        for r in result
    }
    assert by_key[(5.0, 64, 1)].power_w < by_key[(45.0, 64, 1)].power_w
    # Partitioning improves runtime until the parallelism plateau.
    assert by_key[(45.0, 64, 1)].runtime_s < by_key[(45.0, 1, 1)].runtime_s
    assert (
        by_key[(45.0, 4096, 1)].runtime_s
        == by_key[(45.0, 2048, 1)].runtime_s
    )
