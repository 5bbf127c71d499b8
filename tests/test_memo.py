"""The concurrency contract of the process memo (:mod:`repro.memo`)."""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.memo import memo, peek

#: More threads than cores, so callers are preempted mid-call.
THREADS = max(8, (os.cpu_count() or 1) + 1)
#: Only turns a hang into a failure; nothing here is timed.
HANG_GUARD_S = 60
#: How long a build keeps its key in flight, so that the other callers
#: arrive while it runs.  Every assertion holds for any value.
BUILD_S = 0.05


def _race(call) -> None:
    """Run ``call(index)`` on THREADS threads released at once."""
    start = threading.Barrier(THREADS, timeout=HANG_GUARD_S)

    def run(index):
        start.wait()
        call(index)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(HANG_GUARD_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_racing_callers_build_a_cold_key_once():
    key = ("test.memo", "race")
    built = []
    results = [None] * THREADS

    def build():
        value = object()
        built.append(value)
        time.sleep(BUILD_S)
        return value

    def call(index):
        results[index] = memo(key, build)

    _race(call)

    assert len(built) == 1
    assert all(result is built[0] for result in results)
    assert memo(key, build) is built[0]


def test_peek_reads_without_building():
    key = ("test.memo", "peek")

    def build():
        raise AssertionError("peek built a value")

    assert peek(key) == (False, None)
    assert memo(key, lambda: "value") == "value"
    assert peek(key) == (True, "value")
    assert memo(key, build) == "value"


def test_a_build_that_raises_stores_nothing():
    key = ("test.memo", "raises")

    def build():
        raise ValueError("no such name")

    with pytest.raises(ValueError):
        memo(key, build)
    assert peek(key) == (False, None)


def test_a_failed_build_wakes_its_waiters_and_one_of_them_builds():
    key = ("test.memo", "retry")
    builds = []
    outcomes = [None] * THREADS

    def build():
        builds.append(threading.get_ident())
        time.sleep(BUILD_S)
        if len(builds) == 1:
            raise ValueError("the first build fails")
        return "value"

    def call(index):
        try:
            outcomes[index] = memo(key, build)
        except ValueError as exc:
            outcomes[index] = exc

    _race(call)

    # Only the thread whose build raised sees the error; the retry is
    # single-flight too, so the key is built twice in all.
    assert sum(isinstance(outcome, ValueError) for outcome in outcomes) == 1
    assert outcomes.count("value") == THREADS - 1
    assert len(builds) == 2
    assert peek(key) == (True, "value")


def test_a_build_that_reenters_its_own_key_raises():
    key = ("test.memo", "reentry")

    with pytest.raises(RuntimeError, match="re-entered"):
        memo(key, lambda: memo(key, lambda: "inner"))
    assert peek(key) == (False, None)

    # Builds of other keys nest, and the failed build left no flight
    # behind that the next caller would wait on.
    inner = ("test.memo", "reentry-inner")
    assert memo(key, lambda: memo(inner, lambda: "inner") + "+outer") == "inner+outer"
