"""Process supervisor for multi-worker ``repro serve``.

Model evaluation is CPU-bound, so one asyncio process caps throughput at
one core even after the vectorized hot path.  ``repro serve --workers N``
scales horizontally instead: a small :class:`Supervisor` process

* creates the *fleet directory*, the temp directory every worker shares;
* warms the process memo (:mod:`repro.memo`) **once** before the first
  fork: the provenance input fingerprints, the served kernels, and every
  technology backend's model and wall reports.  Workers — crash
  replacements included — are forked from this process, so they inherit
  that state instead of recomputing it;
* pins the public port and forks N serve workers that share it.  Where
  the platform has ``SO_REUSEPORT`` (Linux) each worker binds its own
  listening socket and the kernel load-balances accepts; elsewhere one
  supervisor-bound listening socket is inherited through the fork and
  workers race on ``accept()``;
* restarts crashed workers with exponential backoff (reset after a
  stable run), and fans SIGTERM out to every child for a graceful drain
  before exiting 0 itself.

Workers keep their shared state in the fleet directory, written
atomically (write a temp file, then rename): job records under ``jobs/``
(:mod:`repro.serve.jobs`) and each worker's metrics and flight-recorder
rows in ``workers/<index>.json`` (:mod:`repro.serve.app`).  When a worker
dies, the supervisor marks its unsettled jobs ``failed`` and deletes its
``workers/`` file before the replacement starts.  The content-addressed
schedule cache is the warm layer: when the persistent cache is enabled
without an explicit directory it lives in ``cache/`` there too.

:class:`SupervisorHandle` boots the whole arrangement as a subprocess
for tests and benchmarks, parsing the advertised port from stdout.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.obs.log import get_logger, kv

__all__ = ["Supervisor", "SupervisorHandle"]

logger = get_logger("serve.supervisor")

#: Restart backoff: doubles per crash from the floor to the cap, and
#: resets once a worker survives ``STABLE_S`` seconds.
BACKOFF_FLOOR_S = 0.5
BACKOFF_CAP_S = 8.0
STABLE_S = 30.0

#: Stdout line tests and operators parse for the bound address.
_SERVING_LINE = re.compile(r"serving on http://([^:]+):(\d+)")

#: Workloads whose kernels the supervisor traces before forking.
WARM_WORKLOADS = ("FFT", "GMM", "S3D", "SRT")


def _tcp_socket() -> socket.socket:
    return socket.socket(socket.AF_INET, socket.SOCK_STREAM)


class Supervisor:
    """Fork, babysit, and drain N serve workers sharing one port."""

    def __init__(self, config):
        from repro.serve.app import ServeConfig

        if not isinstance(config, ServeConfig):  # pragma: no cover - misuse
            raise TypeError(f"expected ServeConfig, got {type(config).__name__}")
        if config.workers < 1:
            raise ValueError(f"workers must be >= 1, got {config.workers}")
        self.config = config
        self.workers = int(config.workers)
        self.port: Optional[int] = None
        self.fleet_dir: Optional[str] = None
        self.reuseport = hasattr(socket, "SO_REUSEPORT")
        self._placeholder: Optional[socket.socket] = None
        self._listen_sock: Optional[socket.socket] = None
        self._pids: Dict[int, int] = {}            # slot -> live child pid
        self._spawned_at: Dict[int, float] = {}    # slot -> monotonic stamp
        self._backoff: Dict[int, float] = {}       # slot -> next crash delay
        self._restarts = 0
        self._shutting_down = False
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None

    # -- setup -----------------------------------------------------------------

    def _setup(self) -> None:
        """Fleet directory, shared cache dir, warm memo, and the public port."""
        self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
        self.fleet_dir = self._tmpdir.name
        if self.config.use_cache and not self.config.cache_dir:
            # No directory given: provision one all workers share so a
            # schedule computed by any replica warms every replica.
            self.config.cache_dir = os.path.join(self.fleet_dir, "cache")
            os.makedirs(self.config.cache_dir, exist_ok=True)
        self._warm()
        self._bind_sockets()

    @staticmethod
    def _warm() -> None:
        """Compute what a worker's startup and first requests read."""
        from repro.accel.engine import SweepEngine
        from repro.provenance.manifest import input_fingerprints
        from repro.serve.app import served_kernel
        from repro.tech import backend_names
        from repro.tech.scenarios import wall_reports
        from repro.workloads import get_workload

        start = time.monotonic()
        # Also fills reference_database()'s cache: the manifest capture in
        # ServeApp.startup reads both.
        input_fingerprints()
        engine = SweepEngine()
        for abbrev in WARM_WORKLOADS:
            served_kernel(get_workload(abbrev), engine)
        for name in backend_names():
            wall_reports(name)  # builds the backend's model too
        logger.info(
            "supervisor.warmed %s", kv(elapsed_s=round(time.monotonic() - start, 3))
        )

    def _bind_sockets(self) -> None:
        host, port = self.config.host, self.config.port
        if self.reuseport:
            # A bound (not listening) placeholder pins the port for the
            # process group without joining the kernel's accept
            # distribution — only listening sockets receive connections.
            sock = _tcp_socket()
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
                sock.bind((host, port))
            except OSError:
                sock.close()
                self.reuseport = False
            else:
                self._placeholder = sock
                self.port = sock.getsockname()[1]
        if not self.reuseport:
            # Fallback: one listening socket inherited by every worker;
            # the kernel wakes one acceptor per connection.
            sock = _tcp_socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen(128)
            self._listen_sock = sock
            self.port = sock.getsockname()[1]

    # -- worker processes ------------------------------------------------------

    def _spawn(self, index: int) -> None:
        pid = os.fork()
        if pid == 0:
            # Child: nothing below this line returns.
            code = 70  # EX_SOFTWARE unless the serve loop says otherwise
            try:
                code = self._worker_main(index)
            except BaseException:  # noqa: BLE001 - child must never unwind
                traceback.print_exc()
            finally:
                os._exit(code)
        self._pids[index] = pid
        self._spawned_at[index] = time.monotonic()
        logger.info("supervisor.spawned %s", kv(worker=index, pid=pid))

    def _worker_config(self, index: int):
        """The :class:`ServeConfig` worker *index* serves with."""
        return replace(
            self.config,
            workers=1,
            port=self.port,
            worker_index=index,
            fleet_dir=self.fleet_dir,
        )

    def _worker_main(self, index: int) -> int:
        """Runs inside the forked child; serves until SIGTERM."""
        # The inherited supervisor handlers would make this child signal
        # its own siblings; drop to defaults until asyncio installs the
        # graceful-drain handler.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        from repro.obs.metrics import reset_metrics
        from repro.serve.app import ServeApp

        reset_metrics()  # drop the supervisor's warm-up counters
        app = ServeApp(self._worker_config(index))
        if self.reuseport:
            assert self._placeholder is not None
            self._placeholder.close()
            sock = _tcp_socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.config.host, self.port))
            app.listen_sock = sock
        else:
            app.listen_sock = self._listen_sock
        asyncio.run(app.serve_until_shutdown())
        return 0

    def _slot_of(self, pid: int) -> Optional[int]:
        for index, known in self._pids.items():
            if known == pid:
                return index
        return None

    def reap(self, index: int, status: int) -> None:
        """Settle dead worker *index*'s shared state (*status* from waitpid).

        Its unsettled jobs can no longer finish, so their records become
        ``failed``; its published metrics and recorder rows are deleted
        so the merged views drop it until the replacement publishes.
        """
        from repro.serve.app import worker_state_path
        from repro.serve.jobs import fail_worker_jobs

        code = os.waitstatus_to_exitcode(status)
        how = f"signal {-code}" if code < 0 else f"exit code {code}"
        try:
            fail_worker_jobs(
                self.fleet_dir, index, f"worker {index} died ({how}) before the job settled"
            )
            worker_state_path(self.fleet_dir, index).unlink(missing_ok=True)
        except OSError as exc:  # the supervisor must outlive a bad directory
            logger.warning("supervisor.reap_failed %s", kv(worker=index, error=str(exc)))

    def _restart(self, index: int, status: int) -> None:
        """Respawn a crashed worker after its slot's current backoff."""
        uptime = time.monotonic() - self._spawned_at.get(index, 0.0)
        if uptime >= STABLE_S:
            self._backoff[index] = BACKOFF_FLOOR_S
        delay = self._backoff.get(index, BACKOFF_FLOOR_S)
        self._backoff[index] = min(BACKOFF_CAP_S, delay * 2)
        self._restarts += 1
        logger.warning(
            "supervisor.worker_died %s",
            kv(worker=index, status=status, uptime_s=uptime, backoff_s=delay),
        )
        deadline = time.monotonic() + delay
        while not self._shutting_down and time.monotonic() < deadline:
            time.sleep(min(0.05, max(0.0, deadline - time.monotonic())))
        if not self._shutting_down:
            self._spawn(index)

    # -- lifecycle -------------------------------------------------------------

    def _handle_signal(self, signum, frame) -> None:
        self._shutting_down = True
        for pid in self._pids.values():
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    def _wait_listening(self, timeout_s: float = 30.0) -> None:
        """Block until a worker accepts on the public port.

        In reuseport mode the kernel refuses connections until the first
        child binds its listener, so "serving on ..." must not be
        printed (operators and the CI smoke race on it) until a probe
        connect succeeds.  The probe closes without sending a request;
        workers treat that as normal client churn.
        """
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                socket.create_connection(
                    ("127.0.0.1" if self.config.host == "0.0.0.0" else self.config.host,
                     self.port),
                    timeout=1.0,
                ).close()
                return
            except OSError:
                time.sleep(0.05)
        logger.warning("supervisor.not_listening %s", kv(timeout_s=timeout_s))

    def run(self) -> int:
        """Blocking entry point: serve until SIGTERM/SIGINT, exit 0."""
        self._setup()
        assert self.port is not None
        for index in range(self.workers):
            self._spawn(index)
        signal.signal(signal.SIGTERM, self._handle_signal)
        signal.signal(signal.SIGINT, self._handle_signal)
        self._wait_listening()
        print(
            f"serving on http://{self.config.host}:{self.port} "
            f"[workers {self.workers}] "
            f"[mode {'reuseport' if self.reuseport else 'shared-socket'}]",
            flush=True,
        )
        logger.info(
            "supervisor.up %s",
            kv(
                port=self.port,
                workers=self.workers,
                reuseport=self.reuseport,
                fleet_dir=self.fleet_dir,
            ),
        )
        while not self._shutting_down:
            try:
                pid, status = os.waitpid(-1, 0)
            except ChildProcessError:
                break  # every child gone and none to restart
            except InterruptedError:  # pragma: no cover - pre-3.5 semantics
                continue
            index = self._slot_of(pid)
            if index is not None:
                del self._pids[index]
            if self._shutting_down:
                break
            if index is not None:
                self.reap(index, status)
                self._restart(index, status)
        self._shutdown()
        print("drained, bye", flush=True)
        return 0

    def _shutdown(self) -> None:
        """SIGTERM every child, grant the drain budget, SIGKILL stragglers."""
        self._shutting_down = True
        for pid in self._pids.values():
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + self.config.drain_timeout_s + 5.0
        for index, pid in list(self._pids.items()):
            while True:
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    break
                if done == pid:
                    break
                if time.monotonic() >= deadline:
                    logger.warning(
                        "supervisor.kill %s", kv(worker=index, pid=pid)
                    )
                    try:
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                    except (ProcessLookupError, ChildProcessError):
                        pass
                    break
                time.sleep(0.02)
        self._pids.clear()
        for sock in (self._placeholder, self._listen_sock):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
        logger.info("supervisor.down %s", kv(restarts=self._restarts))


class SupervisorHandle:
    """A multi-worker server running as a subprocess (tests/benchmarks).

    Usage::

        handle = SupervisorHandle(workers=2).start()
        ... http requests against handle.port ...
        assert handle.stop() == 0
    """

    def __init__(
        self,
        workers: int = 2,
        extra_args: Tuple[str, ...] = (),
        env: Optional[Dict[str, str]] = None,
    ):
        self.workers = int(workers)
        self.extra_args = tuple(extra_args)
        self.env = dict(env or {})
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.proc: Optional[subprocess.Popen] = None
        self.lines: List[str] = []
        self._ready = threading.Event()
        self._reader: Optional[threading.Thread] = None

    def start(self, timeout_s: float = 120.0) -> "SupervisorHandle":
        env = dict(os.environ)
        env.setdefault("PYTHONUNBUFFERED", "1")
        env.update(self.env)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", str(self.workers),
                *self.extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self._reader = threading.Thread(target=self._drain_stdout, daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout_s):
            self.proc.kill()
            raise RuntimeError(
                "supervisor did not advertise a port in "
                f"{timeout_s:.0f}s; output so far:\n" + "".join(self.lines)
            )
        if self.port is None:
            raise RuntimeError(
                "supervisor exited before serving:\n" + "".join(self.lines)
            )
        return self

    def _drain_stdout(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.append(line)
            found = _SERVING_LINE.search(line)
            if found is not None:
                self.host, self.port = found.group(1), int(found.group(2))
                self._ready.set()
        self._ready.set()  # EOF: unblock start() so it can report the death

    def stop(self, timeout_s: float = 60.0) -> int:
        """SIGTERM the supervisor and return its exit code."""
        assert self.proc is not None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait(10.0)
        if self._reader is not None:
            self._reader.join(5.0)
        return code

    @property
    def output(self) -> str:
        return "".join(self.lines)
