"""Load-test the serving layer and record a ``BENCH_*.json`` entry.

Starts an in-process server (:class:`repro.serve.ServerHandle`), drives
it with N concurrent clients sending a mixed traffic pattern (evaluate,
what-if, CMOS gains, CSR series), and records per-endpoint p50/p95/p99
latency and aggregate throughput.

A final phase repeats the mixed pattern against ``repro serve
--workers N`` (the forking supervisor) for each worker count, recording
p50/p95/p99 and throughput per count plus the max-vs-1 ``workers_speedup``
— the horizontal-scaling curve.  The curve only rises with multiple CPU
cores; on a single-core machine it honestly records ~1x.

Usage::

    python benchmarks/serve_load.py --out-dir bench-results \
        --clients 8 --requests 40 --worker-counts 1,2,4
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.provenance.manifest import SCHEMA_VERSION
from repro.serve import ServeConfig, ServerHandle, SupervisorHandle

#: Design points the mixed-traffic phase cycles through (warmed up, so the
#: phase measures steady-state request handling).
EVALUATE_POINTS = (
    {"workload": "FFT", "node_nm": 5.0, "partition": 64, "simplification": 9},
    {"workload": "FFT", "node_nm": 7.0, "partition": 16, "simplification": 5},
    {"workload": "GMM", "node_nm": 5.0, "partition": 256, "simplification": 13},
    {"workload": "S3D", "node_nm": 10.0, "partition": 4, "simplification": 3},
)

#: Kernel-trace warmup: one point per kernel, so workload tracing happens
#: before any phase is timed.
TRACE_WARMUP = (
    {"workload": "FFT", "node_nm": 45.0, "partition": 1, "simplification": 1},
    {"workload": "GMM", "node_nm": 45.0, "partition": 1, "simplification": 1},
    {"workload": "S3D", "node_nm": 45.0, "partition": 1, "simplification": 1},
)

WHATIF_BODIES = (
    {"domain": "video_decoding", "die_scale": 2.0},
    {"domain": "bitcoin_mining", "metric": "efficiency", "tdp_scale": 4.0},
)

GET_TARGETS = (
    "/cmos/gains?node=5",
    "/cmos/gains?node=7&frequency_mhz=2000",
    "/csr/video",
    "/wall/projections",
)


class Client:
    """One load-generating thread with a keep-alive connection."""

    def __init__(self, port: int, client_id: str):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.headers = {"X-Client-Id": client_id}
        self.latencies: Dict[str, List[float]] = {}
        self.errors = 0

    def request(
        self, method: str, target: str, body: Optional[dict], family: str
    ) -> None:
        payload = json.dumps(body).encode() if body is not None else None
        start = time.perf_counter()
        try:
            self.conn.request(method, target, body=payload, headers=self.headers)
            response = self.conn.getresponse()
            response.read()
            ok = response.status == 200
        except (http.client.HTTPException, OSError):
            self.conn.close()
            ok = False
        elapsed = time.perf_counter() - start
        if ok:
            self.latencies.setdefault(family, []).append(elapsed)
        else:
            self.errors += 1

    def close(self) -> None:
        self.conn.close()


def percentile(values: List[float], q: float) -> float:
    if not values:
        return float("nan")
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def summarise(values: List[float]) -> Dict[str, float]:
    return {
        "count": len(values),
        "p50_ms": percentile(values, 0.50) * 1e3,
        "p95_ms": percentile(values, 0.95) * 1e3,
        "p99_ms": percentile(values, 0.99) * 1e3,
        "mean_ms": (statistics.fmean(values) * 1e3) if values else float("nan"),
    }


def mixed_phase(port: int, clients: int, requests: int) -> Dict[str, Any]:
    """Mixed-traffic phase: every client interleaves all endpoint families."""

    def worker(client: Client, index: int) -> None:
        # Per-family turn counters: `(index + i) % 4` alone would always
        # select variant 0 of each family (both moduli in lock-step).
        turns = [0, 0, 0, 0]
        for i in range(requests):
            family = (index + i) % 4
            turn = turns[family]
            turns[family] += 1
            if family == 0:
                body = EVALUATE_POINTS[(index + turn) % len(EVALUATE_POINTS)]
                client.request("POST", "/evaluate", body, "evaluate")
            elif family == 1:
                body = WHATIF_BODIES[(index + turn) % len(WHATIF_BODIES)]
                client.request("POST", "/wall/whatif", body, "whatif")
            elif family == 2:
                target = GET_TARGETS[(index + turn) % len(GET_TARGETS)]
                name = target.split("?")[0].split("/")[1]
                client.request("GET", target, None, name)
            else:
                client.request("GET", "/healthz", None, "healthz")

    return run_phase(port, clients, worker)


def run_phase(port: int, clients: int, worker) -> Dict[str, Any]:
    pool = [Client(port, f"load-{i}") for i in range(clients)]
    threads = [
        threading.Thread(target=worker, args=(client, i))
        for i, client in enumerate(pool)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    latencies: Dict[str, List[float]] = {}
    errors = 0
    for client in pool:
        for family, values in client.latencies.items():
            latencies.setdefault(family, []).extend(values)
        errors += client.errors
        client.close()
    total = sum(len(v) for v in latencies.values())
    return {
        "clients": clients,
        "requests_ok": total,
        "errors": errors,
        "elapsed_s": elapsed,
        "throughput_rps": total / elapsed if elapsed > 0 else float("nan"),
        "latency": {family: summarise(v) for family, v in sorted(latencies.items())},
    }


def telemetry_sample(port: int) -> Dict[str, Any]:
    """The server's own view of the load it just took.

    Scrapes the ``serve.latency_s`` histogram family from ``/metrics``
    and the slowest retained flight-recorder rows from ``/debug/slow``,
    so each entry records what the always-on telemetry measured server-
    side next to the client-side percentiles.  (The acceptance gate
    holds client-side mixed p50 with telemetry on against the
    pre-histogram baseline — telemetry must stay cheap enough to never
    turn off.)
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    headers = {"X-Client-Id": "bench-telemetry"}
    try:
        conn.request("GET", "/debug/slow?n=5", headers=headers)
        payload = json.loads(conn.getresponse().read())
        slowest = [
            {key: row.get(key) for key in ("route", "status", "duration_s", "trace_id")}
            for row in payload["data"]["requests"]
        ]
        conn.request("GET", "/metrics", headers=headers)
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    histogram: Dict[str, Any] = {"buckets": 0}
    for line in text.splitlines():
        if line.startswith("repro_serve_latency_s_sum "):
            histogram["sum_s"] = float(line.split()[-1])
        elif line.startswith("repro_serve_latency_s_count "):
            histogram["count"] = int(line.split()[-1])
        elif line.startswith("repro_serve_latency_s_bucket{"):
            histogram["buckets"] += 1
    return {"histogram": histogram, "slowest": slowest}


def with_server(fn) -> Dict[str, Any]:
    """Run *fn(port)* against a fresh, warmed server."""
    config = ServeConfig(
        port=0,
        response_cache=0,  # every request reaches the model
        threads=8,
    )
    handle = ServerHandle(config).start()
    try:
        # Trace each kernel and schedule the mixed design points up front
        # so the phase measures steady-state serving, not first touches.
        probe = Client(handle.port, "warmup")
        for body in TRACE_WARMUP + EVALUATE_POINTS:
            probe.request("POST", "/evaluate", body, "warmup")
        probe.close()
        return fn(handle.port)
    finally:
        handle.stop()


def worker_scaling_phase(
    clients: int, requests: int, counts: Sequence[int]
) -> Dict[str, Any]:
    """Mixed traffic against ``--workers N`` subprocesses for each count.

    Count 1 is the plain single process (the CLI only starts a supervisor
    past 1), so the recorded curve is exactly "what adding workers buys
    over today's server".  Each run is warmed with one pass of the mixed
    design points per worker so steady-state serving is measured, not
    per-replica first-touch scheduling.
    """
    results: Dict[str, Any] = {}
    for count in counts:
        handle = SupervisorHandle(
            workers=count, extra_args=("--response-cache", "0")
        ).start()
        try:
            # With reuseport the kernel picks the worker per connection, so
            # warm with `count` passes to touch every replica with high
            # probability (supervisor workers inherit their traced kernels
            # from the supervisor by fork; this warms their schedule caches).
            for _ in range(max(1, count)):
                probe = Client(handle.port, "warmup")
                for body in TRACE_WARMUP + EVALUATE_POINTS:
                    probe.request("POST", "/evaluate", body, "warmup")
                probe.close()
            results[str(count)] = mixed_phase(handle.port, clients, requests)
        finally:
            code = handle.stop()
            results[str(count)]["exit_code"] = code
    baseline = results.get(str(min(counts)), {}).get("throughput_rps", 0.0)
    top = results.get(str(max(counts)), {}).get("throughput_rps", 0.0)
    return {
        "counts": list(counts),
        "cpu_count": os.cpu_count(),
        "results": results,
        "workers_speedup": top / baseline if baseline > 0 else float("nan"),
    }


def run(clients: int, requests: int, worker_counts: Sequence[int] = ()) -> dict:
    def mixed_with_telemetry(port: int) -> Dict[str, Any]:
        result = mixed_phase(port, clients, requests)
        result["telemetry"] = telemetry_sample(port)
        return result

    mixed = with_server(mixed_with_telemetry)
    entry = {
        "bench": "serve_load",
        "schema_version": SCHEMA_VERSION,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "commit": os.environ.get("GITHUB_SHA", "local"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {
            "clients": clients,
            "requests_per_client": requests,
            "worker_counts": list(worker_counts),
        },
        "mixed": mixed,
    }
    if worker_counts:
        entry["workers"] = worker_scaling_phase(clients, requests, worker_counts)
        entry["workers_speedup"] = entry["workers"]["workers_speedup"]
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir", type=Path, default=Path("bench-results"),
        help="directory for the BENCH_*.json entry (default: bench-results)",
    )
    parser.add_argument(
        "--clients", type=int, default=8,
        help="concurrent load-generating clients (default: 8)",
    )
    parser.add_argument(
        "--requests", type=int, default=40,
        help="requests per client per phase (default: 40)",
    )
    parser.add_argument(
        "--worker-counts", default="1,2,4", metavar="N,N,...",
        help="worker counts for the horizontal-scaling phase; empty "
        "string skips it (default: 1,2,4)",
    )
    args = parser.parse_args(argv)
    counts = tuple(
        int(part) for part in args.worker_counts.split(",") if part.strip()
    )

    entry = run(args.clients, args.requests, worker_counts=counts)
    label = entry["commit"][:12]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_serve_load_{label}.json"
    with open(path, "w") as handle:
        json.dump(entry, handle, indent=2)
    mixed = entry["mixed"]
    line = (
        f"wrote {path}: {mixed['requests_ok']} requests at "
        f"{mixed['throughput_rps']:.1f} req/s"
    )
    if "workers_speedup" in entry:
        top = max(entry["workers"]["results"], key=int)
        line += (
            f" ({top}-worker mixed speedup {entry['workers_speedup']:.2f}x "
            f"on {entry['workers']['cpu_count']} cpu(s))"
        )
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
