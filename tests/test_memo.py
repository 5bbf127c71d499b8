"""The concurrency contract of the process memo (:mod:`repro.memo`)."""

from __future__ import annotations

import sys
import threading

from repro.memo import memo

THREADS = 8
#: Only turns a hang into a failure; nothing here is timed.
HANG_GUARD_S = 60


def test_racing_builders_all_get_the_first_stored_value():
    key = ("test.memo", "race")
    start = threading.Barrier(THREADS, timeout=HANG_GUARD_S)
    # Every builder waits here for all the others, so all eight miss the
    # cold key and build at once; a lock held across build() would
    # deadlock and break this barrier.
    inside = threading.Barrier(THREADS, timeout=HANG_GUARD_S)
    built = []
    results = [None] * THREADS

    def build():
        value = object()
        built.append(value)
        inside.wait()
        return value

    def call(index):
        start.wait()
        results[index] = memo(key, build)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(THREADS)]
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
    assert len(built) == THREADS
    assert results[0] in built
    assert all(result is results[0] for result in results)
    assert memo(key, build) is results[0]
