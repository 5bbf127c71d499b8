"""E-F14: Fig 14 — specialization and CMOS accelerator gains, all kernels.

Attributes each Table IV kernel's best-design gains (throughput and energy
efficiency) over the full Table III grid to CMOS saving / heterogeneity /
simplification / partitioning.
Paper shapes asserted: partitioning dominates performance on average, CMOS
saving dominates energy efficiency, and CSR is low for both.
"""

import math
import os

import pytest

from conftest import emit

from repro.accel.engine import SweepEngine
from repro.reporting.figures import fig14_gain_attribution
from repro.reporting.tables import render_rows

#: Kernels fan out across worker processes; attribution values are
#: identical to the serial loop (tested in tests/accel/test_engine.py).
JOBS = min(4, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    """One engine for both metrics: 14b reuses every schedule 14a cached."""
    return SweepEngine(jobs=JOBS, cache_dir=tmp_path_factory.mktemp("dse-cache"))


def _rows(metric, engine=None):
    """Fig 14 over the paper's full Table III grid (Section VI)."""
    return fig14_gain_attribution(metric=metric, engine=engine)


def _render(rows):
    flat = []
    for row in rows:
        flat.append(
            {
                "kernel": row["workload"],
                "gain_x": row["total_gain"],
                "csr_x": row["csr"],
                **{k: f"{v:.0f}%" for k, v in row["shares"].items()},
            }
        )
    return render_rows(flat)


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_fig14a_performance(benchmark, engine):
    rows = benchmark.pedantic(
        _rows, args=("throughput", engine), rounds=1, iterations=1
    )
    emit("Fig 14a: performance gain attribution", _render(rows))
    emit("Fig 14a engine stats", engine.last_stats.describe())
    avg_partition_share = _geomean(
        [max(r["shares"]["partitioning"], 1.0) for r in rows]
    )
    emit(
        "Fig 14a headline",
        f"geomean partitioning share {avg_partition_share:.0f}% "
        "(paper: partitioning is the primary performance source)",
    )
    assert avg_partition_share > 40
    # CSR is low: orders below the total gain for every kernel.
    for row in rows:
        assert row["csr"] < row["total_gain"] / 3, row["workload"]


def test_fig14b_energy_efficiency(benchmark, engine):
    rows = benchmark.pedantic(
        _rows, args=("energy_efficiency", engine), rounds=1, iterations=1
    )
    emit("Fig 14b: energy-efficiency gain attribution", _render(rows))
    stats = engine.last_stats
    emit("Fig 14b engine stats", stats.describe())
    # 14a stored every structure it scheduled.  The two metrics' pruned
    # searches schedule different subsets of the grid, but both evaluate
    # the same 45nm baseline, so the warm pass must hit the store.
    assert stats.cache_hits > 0
    cmos_dominant = sum(
        1
        for r in rows
        if r["shares"]["cmos_saving"] == max(r["shares"].values())
    )
    emit(
        "Fig 14b headline",
        f"CMOS saving is the dominant efficiency source for "
        f"{cmos_dominant}/{len(rows)} kernels (paper: dominating factor)",
    )
    assert cmos_dominant >= len(rows) * 0.6
