"""Forked serve workers inherit the supervisor's warm process memo.

``Supervisor._setup`` computes what a worker's startup and first
requests read before it forks the first worker.  A child forked after
it must boot and answer from that inherited state alone, so the child
below makes every builder of that state raise.
"""

from __future__ import annotations

import os
import traceback

import pytest

from repro.serve.app import ServeApp, ServeConfig
from repro.serve.supervisor import Supervisor

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _recomputed(*args, **kwargs):
    raise AssertionError("a forked worker recomputed inherited state")


def _worker_reads(supervisor: Supervisor) -> None:
    import repro.datasheets.reference as reference
    import repro.tech.scenarios as scenarios
    import repro.wall.limits as limits
    from repro.tech import backend_names
    from repro.workloads.registry import Workload

    Workload.build = _recomputed
    reference.synthetic_database = _recomputed
    limits.accelerator_wall = _recomputed
    scenarios.accelerator_wall = _recomputed

    app = ServeApp(supervisor._worker_config(0))
    app.startup()
    assert app.kernel("FFT").name == "fft"
    assert app.study("video").chips
    for name in backend_names():
        assert len(scenarios.wall_reports(name)) == 8


def test_worker_boots_and_answers_from_inherited_memo():
    supervisor = Supervisor(ServeConfig(port=0, workers=2))
    try:
        supervisor._setup()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: never return into pytest
            code = 1
            try:
                os.close(read_fd)
                _worker_reads(supervisor)
                code = 0
            except BaseException:  # noqa: BLE001 - report, then exit
                os.write(write_fd, traceback.format_exc().encode())
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            report = pipe.read().decode()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0, report
    finally:
        supervisor._shutdown()
