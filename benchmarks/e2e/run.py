"""The repository benchmark: four workloads, end-to-end or traced.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload dse_full --seed 1 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --workload serve_model --seed 3 --trace 1 --out DIR

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
measured with no tracing anywhere, and CPU-bound process times are given
at reference host speed (:mod:`speed`); with ``--trace 1`` they are the
per-layer ones.  The exit code is 1 when an output check fails and 2 when
the benchmark cannot run at all (for example without ``src/repro``).
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import checks
import loadgen
import speed
import traffic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOADS = ("dse_full", "paper_model", "serve_evaluate", "serve_model")

#: Load-generator threads, each with one keep-alive connection.
CLIENTS = 2
#: Set-up-only processes per batch run; setup_s is the median of these
#: and of every measured run's own set-up.
SETUP_SAMPLES = 5
#: Probe server boots before and again after the measured load; setup_s
#: is the median of these and the measured server's own boot.  Booting
#: is import-heavy and slows in phases of seconds, so the samples are
#: spread over the run.
SETUP_PROBES_EACH_SIDE = 2
#: A child still running this long after it started is killed.
CHILD_TIMEOUT_S = 150.0

#: Share of operations dropped at each end by ``trimmed_mean_ms``.
TRIM = 0.10

#: Open-loop rungs of the traced serve_model run: (name, requests/s,
#: seconds).  ``low`` and ``high`` always run; the ladder goes on only
#: while rungs pass.
LADDER: Tuple[Tuple[str, float, float], ...] = (
    ("low", 10.0, 20.0),
    ("high", 30.0, 20.0),
    ("x3", 90.0, 10.0),
    ("x9", 270.0, 10.0),
    ("x27", 810.0, 10.0),
)

#: Routes whose mean server-side handling time the traced run reports.
SERVE_ROUTES = (
    "evaluate", "attribute", "cmos_gains", "csr_study",
    "wall_projections", "wall_whatif", "artifact",
)

#: Written instead of an infinite percentile (a failed request).
FAILED_MS = 1e9


class BenchmarkError(Exception):
    """The benchmark cannot run here (not an output-check failure)."""


# -- processes -------------------------------------------------------------------


class Run:
    """State of one benchmark invocation: seed, clock budget, work directories."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self._ops = 0

    def op_dir(self, tag: str) -> Tuple[Path, Dict[str, str]]:
        """Fresh directories and environment for one process under test.

        Cache, run ledger and temp files are new for every process, so no
        run warms a later one.  Git discovery stops at the run's work
        directory, so provenance capture behaves the same in a git
        checkout and outside.
        """
        self._ops += 1
        directory = self.workdir / f"{self._ops:04d}-{tag}"
        for sub in ("cache", "runs", "tmp"):
            (directory / sub).mkdir(parents=True)
        env = dict(os.environ)
        env.update(
            PYTHONPATH=str(SRC),
            REPRO_CACHE_DIR=str(directory / "cache"),
            REPRO_RUNS_DIR=str(directory / "runs"),
            TMPDIR=str(directory / "tmp"),
            GIT_CEILING_DIRECTORIES=str(self.workdir),
        )
        return directory, env


class Proc:
    """A process under test, timed from spawn to its ready line.

    Construction kills and reaps the process if it never becomes ready;
    :meth:`wait` reaps it and records its peak RSS from ``wait4``.
    """

    def __init__(self, run: Run, tag: str, argv: List[str], ready_prefix: str):
        self.directory, env = run.op_dir(tag)
        self.rss_mb = 0.0
        self.port = 0
        #: Brings ``setup_s`` to reference speed, from the process's own
        #: speed samples (:mod:`speed`).
        self.setup_scale = 1.0
        start = perf_counter()
        with open(self.directory / "stderr.txt", "wb") as stderr:
            self.popen = subprocess.Popen(
                argv, cwd=self.directory, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=stderr, text=True,
            )
        self._watchdog = threading.Timer(CHILD_TIMEOUT_S, self.popen.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        try:
            self.ready_line = self.popen.stdout.readline()
            self.setup_s = perf_counter() - start
            if not self.ready_line.startswith(ready_prefix):
                raise BenchmarkError(
                    f"{argv[1:3]} did not become ready: {self.stderr()[-800:]}"
                )
        except BaseException:
            self.kill()
            raise

    def stderr(self) -> str:
        return (self.directory / "stderr.txt").read_text(errors="replace")

    def wait(self) -> int:
        _, status, usage = os.wait4(self.popen.pid, 0)
        self._watchdog.cancel()
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self.popen.stdout.close()
        self.rss_mb = usage.ru_maxrss / 1024.0
        return self.popen.returncode

    def kill(self) -> None:
        if self.popen.returncode is None:
            self.popen.kill()
            self.wait()


# -- batch workloads -------------------------------------------------------------


@dataclass
class BatchOp:
    setup_s: float
    rss_mb: float
    #: Bring ``setup_s`` and ``work_s`` to reference speed (:mod:`speed`).
    setup_scale: float = 1.0
    work_s: float = math.inf
    work_scale: float = 1.0
    result: dict = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and math.isfinite(self.work_s)


def batch_op(run: Run, trace: bool, setup_only: bool = False) -> BatchOp:
    argv = [sys.executable, str(HERE / "child.py"), "batch", run.workload, "result.json"]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    proc = Proc(run, "setup" if setup_only else "op", argv, "ready")
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        raise
    op = BatchOp(setup_s=proc.setup_s, rss_mb=proc.rss_mb)
    result_path = proc.directory / "result.json"
    if code != 0 or not result_path.is_file():
        op.problems.append(f"child exited {code}: {proc.stderr()[-500:]}")
        return op
    op.result = json.loads(result_path.read_text())
    op.setup_scale = speed.scale(op.result["setup_snippet_s"])
    if setup_only:
        return op
    op.work_s = op.result["work_s"]
    op.work_scale = speed.scale(op.result["work_snippet_s"])
    op.problems = checks.golden_problems(checks.load_reference(run.workload), op.result)
    return op


def another_fits(elapsed_s: float, done: int, seconds: float) -> bool:
    """Whether one more operation, as long as the mean one so far, ends
    nearer to *seconds* than stopping now does."""
    return elapsed_s + elapsed_s / done / 2 < seconds


def run_batch(run: Run) -> dict:
    if not run.trace:
        setup_only = [batch_op(run, False, setup_only=True) for _ in range(SETUP_SAMPLES)]
        for op in setup_only:
            if op.problems:
                raise BenchmarkError(f"a set-up-only process failed: {op.problems[0]}")
        start = perf_counter()
        ops = [batch_op(run, False)]
        while another_fits(perf_counter() - start, len(ops), run.seconds):
            ops.append(batch_op(run, False))
        setups = [op.setup_s * op.setup_scale for op in setup_only + ops]
        latencies = [op.work_s * op.work_scale if op.ok else math.inf for op in ops]
        busy = sum(op.setup_s * op.setup_scale + op.work_s * op.work_scale for op in ops)
        rss = statistics.median(op.rss_mb for op in ops)
        metrics = end_to_end(setups, latencies, busy, rss)
        percentiles = closed_percentiles(latencies)
        layers = None
    else:
        # Untraced and traced cold runs alternate, so a slow phase of the
        # machine falls on both and cancels out of trace_overhead_s.
        start = perf_counter()
        pairs = [(batch_op(run, False), batch_op(run, True))]
        while another_fits(perf_counter() - start, len(pairs), run.seconds):
            pairs.append((batch_op(run, False), batch_op(run, True)))
        traced = [t for _, t in pairs if t.ok]
        layers = median_dicts([op.result["layers"] for op in traced])
        layers.update(accel_counters(median_dicts([op.result["counters"] for op in traced])))
        # Whole lifetimes: the tracer imports every module during set-up,
        # which a plain run pays for lazily during its work.
        layers["trace_overhead_s"] = statistics.fmean(
            (t.setup_s + t.work_s) - (p.setup_s + p.work_s) for p, t in pairs
        )
        percentiles = closed_percentiles([p.work_s if p.ok else math.inf for p, _ in pairs])
        layers.update(percentiles)
        ops = [op for pair in pairs for op in pair]
        metrics = {}
    failed = [op for op in ops if not op.ok]
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
        "layers": layers,
        "details": {
            "ops": len(ops),
            "work_s": [op.work_s for op in ops],
            "work_scale": [op.work_scale for op in ops],
            "setup_s": [op.setup_s for op in ops],
            "setup_scale": [op.setup_scale for op in ops],
            **percentiles,
            "problems": [p for op in failed for p in op.problems][:20],
        },
    }


# -- serve workloads -------------------------------------------------------------


def boot_server(run: Run, traced: bool) -> Proc:
    """Start ``repro serve --port 0`` through child.py and probe it.

    The ``/healthz`` answer also means the drain handler is installed, so
    the SIGTERM of :func:`stop_server` drains instead of killing.
    """
    argv = [sys.executable, str(HERE / "child.py"), "serve", "result.json"]
    argv += ["--trace"] * traced + ["--", "--port", "0"]
    proc = Proc(run, "serve", argv, "serving on")
    try:
        proc.port = int(proc.ready_line.split("http://127.0.0.1:")[1].split()[0])
        ready = json.loads((proc.directory / "result.json").read_text())
        proc.setup_scale = speed.scale(ready["setup_snippet_s"])
        http_get(proc.port, "/healthz")
    except BaseException:
        proc.kill()
        raise
    return proc


def stop_server(proc: Proc) -> None:
    """SIGTERM, wait for the drain; a server that fails to exit 0 is an error."""
    try:
        proc.popen.send_signal(signal.SIGTERM)
        proc.popen.stdout.read()
        code = proc.wait()
    except BaseException:
        proc.kill()
        raise
    if code != 0:
        raise BenchmarkError(f"server exited {code}: {proc.stderr()[-800:]}")


def http_get(port: int, path: str) -> str:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read().decode("utf-8")
        if response.status != 200:
            raise BenchmarkError(f"GET {path} answered {response.status}")
        return body
    finally:
        conn.close()


def parse_prometheus(text: str) -> Dict[str, float]:
    """Unlabelled series of a ``/metrics`` scrape."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            values[name] = float(value)
    return values


def serve_layer_metrics(scrape: Dict[str, float], step: loadgen.StepResult) -> Dict[str, float]:
    """Serve-layer numbers from a ``/metrics`` scrape and the client's view.

    ``serve.outside_handler_ms`` is the client's mean latency minus the
    server's mean handling time over the same requests: what transport,
    parsing and writing add.
    """
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    handler_sum = handler_count = 0.0
    for route in SERVE_ROUTES:
        total = scrape.get(f"repro_serve_latency_s_{route}_sum", 0.0)
        count = scrape.get(f"repro_serve_latency_s_{route}_count", 0.0)
        out[f"serve.handler_ms.{route}"] = ratio(total, count) * 1e3
        handler_sum += total
        handler_count += count
    client = [o.latency_s for o in step.outcomes if o.ok]
    client_mean = statistics.fmean(client) if client else 0.0
    out["serve.outside_handler_ms"] = (client_mean - ratio(handler_sum, handler_count)) * 1e3
    for name in ("evaluate", "whatif"):
        out[f"serve.batch.{name}.mean_size"] = ratio(
            scrape.get(f"repro_serve_batch_{name}_items", 0.0),
            scrape.get(f"repro_serve_batch_{name}_flushes", 0.0),
        )
    out["serve.batch.evaluate.coalesced"] = scrape.get("repro_serve_batch_evaluate_coalesced", 0.0)
    for cache in ("response", "artifact"):
        hits = scrape.get(f"repro_serve_cache_{cache}_hits", 0.0)
        misses = scrape.get(f"repro_serve_cache_{cache}_misses", 0.0)
        out[f"serve.cache.{cache}.hit_ratio"] = ratio(hits, hits + misses)
    return out


def schedule(run: Run) -> List[loadgen.Request]:
    if run.workload == "serve_evaluate":
        return traffic.evaluate_schedule(run.seed)
    return traffic.model_schedule(run.seed, traffic.model_names())


def check_outcomes(run: Run, outcomes: List[loadgen.Outcome]) -> int:
    """Compare sampled responses with the oracle; returns mismatches."""
    if run.workload == "serve_evaluate":
        oracle = checks.EvaluateOracle()
        chosen = checks.sample_for_check(
            outcomes, run.seed,
            {"evaluate.hot": checks.EVALUATE_SAMPLES // 2,
             "evaluate.fresh": checks.EVALUATE_SAMPLES // 2},
        )
        bad = checks.mismatches(chosen, lambda o: oracle.expected(o.request.body, o.request.path))
    else:
        directory, _ = run.op_dir("oracle")
        oracle = checks.ModelOracle(directory / "export", outcomes)
        families = {o.request.family for o in outcomes}
        chosen = checks.sample_for_check(
            outcomes, run.seed, {family: checks.MODEL_SAMPLES for family in families}
        )
        bad = checks.mismatches(
            chosen, lambda o: oracle.expected(o.request.family, o.request.path, o.request.body)
        )
    return len(bad)


def ladder(port: int, seed: int) -> List[dict]:
    """The open-loop rungs of :data:`LADDER`, each with its verdict."""
    names = traffic.model_names()
    rungs: List[dict] = []
    for rung, rate, seconds in LADDER:
        requests = traffic.poisson_schedule(seed, rate, seconds, names)
        step = loadgen.open_loop(port, requests, CLIENTS, seconds)
        rungs.append(
            {"rung": rung, "rate_rps": rate, "seconds": seconds,
             "requests": step.attempted, **loadgen.rung_verdict(step)}
        )
        if len(rungs) >= 2 and not all(r["passed"] for r in rungs):
            break
    return rungs


def ladder_metrics(rungs: List[dict]) -> Dict[str, float]:
    """``max_rate_rps`` and the ``low``/``high`` rungs' latencies."""
    out = {"max_rate_rps": loadgen.max_rate(rungs)}
    for rung in rungs[:2]:
        name = rung["rung"]
        out[f"p50_ms.{name}"] = rung["p50_ms"]
        out[f"p95_ms.{name}"] = rung["p95_ms"]
        out[f"loadgen.lateness_p99_ms.{name}"] = rung["lateness_p99_ms"]
    return out


def probe_boot(run: Run) -> float:
    """Boot and stop a server; its spawn-to-ready time at reference speed."""
    server = boot_server(run, traced=False)
    stop_server(server)
    return server.setup_s * server.setup_scale


def run_serve(run: Run) -> dict:
    requests = schedule(run)
    if not run.trace:
        # Boots go to reference speed; the requests stay as measured,
        # because the transport stall (README.md) dominates them, not the CPU.
        setups = [probe_boot(run) for _ in range(SETUP_PROBES_EACH_SIDE)]
        server = boot_server(run, traced=False)
        try:
            step = loadgen.closed_loop(server.port, requests, CLIENTS, run.seconds)
            scrape = parse_prometheus(http_get(server.port, "/metrics"))
        finally:
            stop_server(server)
        setups.append(server.setup_s * server.setup_scale)
        setups += [probe_boot(run) for _ in range(SETUP_PROBES_EACH_SIDE)]
        outcomes = step.outcomes
        metrics = end_to_end(setups, step.latencies_s(), step.elapsed_s, server.rss_mb)
        details = {**serve_layer_metrics(scrape, step), **closed_percentiles(step.latencies_s())}
        layers = None
    else:
        # Server-side numbers and the ladder come from an untraced server;
        # the traced server replays the same requests for the spans.
        server = boot_server(run, traced=False)
        try:
            step = loadgen.closed_loop(server.port, requests, CLIENTS, run.seconds)
            scrape = parse_prometheus(http_get(server.port, "/metrics"))
            rungs = ladder(server.port, run.seed) if run.workload == "serve_model" else []
        finally:
            stop_server(server)
        traced = boot_server(run, traced=True)
        try:
            replay = loadgen.closed_loop(traced.port, requests[: step.attempted], CLIENTS)
        finally:
            stop_server(traced)
        outcomes = step.outcomes + replay.outcomes
        metrics = {}
        serve = {**serve_layer_metrics(scrape, step), **closed_percentiles(step.latencies_s())}
        details = {**serve, "ladder": rungs}
        layers = json.loads((traced.directory / "result.json").read_text())["layers"]
        layers.update(accel_counters(scrape))
        layers.update(serve)
        layers.update(ladder_metrics(rungs))
        layers["trace_overhead_s"] = statistics.fmean(replay.latencies_s()) - statistics.fmean(
            step.latencies_s()
        )
    mismatched = check_outcomes(run, outcomes)
    families: Dict[str, List[float]] = {}
    for outcome in outcomes:
        families.setdefault(outcome.request.family, []).append(outcome.latency_s)
    details.update(
        requests=len(outcomes),
        family_requests={f: len(v) for f, v in sorted(families.items())},
        family_p50_ms={f: loadgen.percentile(v, 50.0) * 1e3 for f, v in sorted(families.items())},
        errors=[f"{o.request.method} {o.request.path}: {o.status} {o.error}" for o in outcomes if not o.ok][:20],
    )
    return {
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if not o.ok),
        "mismatched": mismatched,
        "metrics": metrics,
        "layers": layers,
        "details": details,
    }


# -- metrics ----------------------------------------------------------------------


def end_to_end(
    setups: List[float], latencies_s: List[float], elapsed_s: float, rss_mb: float
) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run.

    *elapsed_s* is the time the operations took together: the load step
    of a serve run, the sum of the cold runs (set-up included) of a batch
    run.
    """
    ok = sum(1 for value in latencies_s if math.isfinite(value))
    return {
        "setup_s": statistics.median(setups),
        "trimmed_mean_ms": trimmed_mean(latencies_s) * 1e3,
        "throughput": ok / elapsed_s,
        "peak_rss_mb": rss_mb,
    }


def trimmed_mean(values: List[float]) -> float:
    """Mean without the lowest and highest :data:`TRIM` share of *values*;
    ``inf`` if any value is (a failed operation).

    Not a median: serve latencies sit at 44 or 48 ms (the transport stall
    in README.md), and the median jumps between the two as their shares
    cross one half.  A mean moves in proportion to the shares.  The trim
    keeps the rare costly request (``/attribute``, 2% of
    ``serve_evaluate``) from setting the mean of a run.
    """
    if not all(math.isfinite(value) for value in values):
        return math.inf
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def closed_percentiles(latencies_s: List[float]) -> Dict[str, float]:
    """Median and p95 of one run's operations, back to back (closed loop).

    p95 needs ten samples beyond it; a run with fewer reports 0.
    """
    p95 = loadgen.supported_percentile(len(latencies_s), (95.0,))
    return {
        "p50_ms.closed": loadgen.percentile(latencies_s, 50.0) * 1e3,
        "p95_ms.closed": loadgen.percentile(latencies_s, p95) * 1e3 if p95 else 0.0,
    }


def accel_counters(counters: Dict[str, float]) -> Dict[str, float]:
    hits = counters.get("repro_cache_memo_hits", 0.0)
    misses = counters.get("repro_cache_memo_misses", 0.0)
    return {
        "accel.batch.points": counters.get("repro_batch_points", 0.0),
        "accel.batch.structures": counters.get("repro_batch_structures", 0.0),
        "accel.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def median_dicts(rows: List[Dict[str, float]]) -> Dict[str, float]:
    keys = sorted({key for row in rows for key in row})
    return {key: statistics.median(row.get(key, 0.0) for row in rows) for key in keys}


def result_line(outcome: dict, trace: bool) -> dict:
    values = outcome["layers"] if trace else outcome["metrics"]
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())[section]:
        name = spec["name"]
        # A layer the workload never reaches (the server on a batch run,
        # the ladder on serve_evaluate) reports 0.
        value = float(values.get(name, 0.0) if trace else values[name])
        value = value if math.isfinite(value) else FAILED_MS
        metrics[name] = {"value": value, "unit": spec["unit"]}
    failed = outcome["failed"] + outcome.get("mismatched", 0)
    return {
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def environment() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": sha,
    }


# -- entry point ---------------------------------------------------------------------


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write a detailed result JSON here")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if CLIENTS > nproc:
        print(f"error: {CLIENTS} load threads need {CLIENTS} cores, have {nproc}", file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # SIGTERM unwinds through the finally blocks, which stop every server
    # and child this run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.environ.update(
        REPRO_CACHE_DIR=str(workdir / "cache"),
        REPRO_RUNS_DIR=str(workdir / "runs"),
        TMPDIR=str(workdir),
    )
    sys.path.insert(0, str(SRC))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    try:
        runner = run_batch if args.workload in ("dse_full", "paper_model") else run_serve
        outcome = runner(run)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = result_line(outcome, run.trace)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(),
            "result": line,
            "details": outcome["details"],
        }
        path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
