"""Flight recorder, trace propagation, and the ``/debug/*`` surface.

Unit tests cover the recorder ring and Chrome-trace stitching in
isolation; the live-server tests drive the shared module server and
assert the operator-facing contract: every response carries an
``X-Trace-Id`` (honoring an injected ``traceparent``), the debug
endpoints resolve traces, and ``repro tail`` renders them.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span
from repro.serve.app import OPS_ROUTES
from repro.serve.debug import (
    MAX_SPANS_PER_RECORD,
    FlightRecorder,
    chrome_trace,
)
from repro.serve.handlers import render_prometheus

import pytest

TRACE32 = "aaaabbbbccccddddeeeeffff00001111"


def make_span(name="work", start=0.0, dur=0.001, pid=100, trace_id="t"):
    return Span(
        name=name,
        start_s=start,
        duration_s=dur,
        pid=pid,
        tid=1,
        depth=0,
        attrs={},
        trace_id=trace_id,
    )


class TestFlightRecorder:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def _fill(self, recorder, n):
        for i in range(n):
            recorder.record(
                trace_id=f"t{i}", route="r", method="GET", path=f"/{i}",
                status=200, duration_s=float(i), start_unix=float(i),
            )

    def test_ring_evicts_oldest(self):
        recorder = FlightRecorder(capacity=3)
        self._fill(recorder, 5)
        assert len(recorder) == 3
        assert [r.trace_id for r in recorder.tail(10)] == ["t2", "t3", "t4"]

    def test_tail_returns_newest_oldest_first(self):
        recorder = FlightRecorder(capacity=10)
        self._fill(recorder, 5)
        assert [r.path for r in recorder.tail(2)] == ["/3", "/4"]

    def test_slowest_sorts_by_duration(self):
        recorder = FlightRecorder(capacity=10)
        self._fill(recorder, 5)
        assert [r.duration_s for r in recorder.slowest(3)] == [4.0, 3.0, 2.0]

    def test_trace_filters_by_id(self):
        recorder = FlightRecorder(capacity=10)
        self._fill(recorder, 3)
        recorder.record(
            trace_id="t1", route="other", method="GET", path="/again",
            status=200, duration_s=0.5,
        )
        rows = recorder.trace("t1")
        assert [r.path for r in rows] == ["/1", "/again"]
        assert recorder.trace("missing") == []

    def test_span_capping_keeps_the_longest(self):
        spans = [
            make_span(name=f"s{i}", start=float(i), dur=float(i))
            for i in range(MAX_SPANS_PER_RECORD + 10)
        ]
        recorder = FlightRecorder(capacity=4)
        row = recorder.record(
            trace_id="t", route="r", method="GET", path="/", status=200,
            duration_s=1.0, spans=spans,
        )
        assert len(row.spans) == MAX_SPANS_PER_RECORD
        durations = [s["duration_s"] for s in row.spans]
        assert min(durations) == 10.0  # the 10 shortest were dropped
        starts = [s["start_s"] for s in row.spans]
        assert starts == sorted(starts)  # stored in timeline order


class TestChromeTrace:
    def _record_dict(self, worker, pid, start):
        return {
            "trace_id": TRACE32,
            "route": "sweeps.get",
            "worker": worker,
            "start_unix": start,
            "spans": [
                {
                    "name": "serve.request",
                    "start_s": start,
                    "duration_s": 0.002,
                    "pid": pid,
                    "tid": 1,
                    "depth": 0,
                }
            ],
        }

    def test_multi_worker_records_get_flow_events(self):
        trace = chrome_trace(
            TRACE32,
            [self._record_dict(0, 100, 1.0), self._record_dict(1, 200, 1.001)],
        )
        events = trace["traceEvents"]
        phases = [e["ph"] for e in events]
        assert phases.count("X") == 2
        assert phases.count("M") == 2  # one process_name per pid
        assert "s" in phases and "f" in phases
        finish = next(e for e in events if e["ph"] == "f")
        assert finish["bp"] == "e"
        assert finish["id"] == TRACE32
        names = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert names == {"repro serve [worker 0]", "repro serve [worker 1]"}

    def test_single_record_has_no_flow_events(self):
        trace = chrome_trace(TRACE32, [self._record_dict(None, 100, 1.0)])
        phases = [e["ph"] for e in trace["traceEvents"]]
        assert "s" not in phases and "f" not in phases
        meta = next(e for e in trace["traceEvents"] if e["ph"] == "M")
        assert meta["args"]["name"] == "repro serve [single]"

    def test_timestamps_rebase_to_earliest_span(self):
        trace = chrome_trace(
            TRACE32,
            [self._record_dict(0, 100, 5.0), self._record_dict(1, 200, 5.5)],
        )
        ts = [e["ts"] for e in trace["traceEvents"] if e["ph"] == "X"]
        assert min(ts) == 0.0
        assert max(ts) == pytest.approx(0.5e6)


class TestPrometheusHistogramRender:
    SNAP = {
        "lat.s": {
            "type": "histogram",
            "count": 3,
            "sum": 0.6,
            "min": 0.1,
            "max": 0.3,
            "buckets": {"137": 1, "141": 2},
        }
    }

    def test_histogram_family(self):
        text = render_prometheus({None: self.SNAP})
        assert "# TYPE repro_lat_s histogram" in text
        assert 'repro_lat_s_bucket{le="+Inf"} 3' in text
        assert "repro_lat_s_count 3" in text
        assert "repro_lat_s_sum 0.6" in text
        # Buckets are cumulative and ordered.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_lat_s_bucket")
        ]
        assert counts == sorted(counts) and counts[-1] == 3

    def test_multi_worker_labels(self):
        text = render_prometheus({0: self.SNAP, 1: self.SNAP})
        assert 'repro_lat_s_bucket{worker="0",le="+Inf"} 3' in text
        assert 'repro_lat_s_bucket{worker="1",le="+Inf"} 3' in text
        assert 'repro_lat_s_count{worker="1"} 3' in text


class TestDebugEndpoints:
    def test_debug_routes_are_ops_exempt(self):
        assert {"debug.requests", "debug.slow", "debug.trace"} <= set(OPS_ROUTES)

    def test_every_response_carries_a_minted_trace_id(self, client):
        _, _, headers = client.get("/healthz")
        tid = headers["x-trace-id"]
        assert len(tid) == 32
        int(tid, 16)

    def test_injected_traceparent_is_honored(self, client):
        _, _, headers = client.get(
            "/healthz",
            headers={"traceparent": f"00-{TRACE32}-b7ad6b7169203331-01"},
        )
        assert headers["x-trace-id"] == TRACE32

    def test_bare_x_trace_id_is_honored(self, client):
        _, _, headers = client.get(
            "/version", headers={"X-Trace-Id": "my-req-1"}
        )
        assert headers["x-trace-id"] == "my-req-1"

    def test_debug_requests_lists_recent_traffic(self, client):
        client.get("/healthz")
        status, payload, _ = client.get("/debug/requests?n=100")
        assert status == 200
        data = payload["data"]
        assert data["capacity"] >= 1
        assert data["recorded"] == len(data["requests"]) or data["recorded"] > 0
        routes = {r["route"] for r in data["requests"]}
        assert "healthz" in routes
        row = data["requests"][-1]
        assert {"trace_id", "status", "duration_s", "spans"} <= set(row)

    def test_debug_requests_rejects_bad_n(self, client):
        status, _, _ = client.get("/debug/requests?n=0")
        assert status == 400
        status, _, _ = client.get("/debug/requests?n=abc")
        assert status == 400

    def test_debug_slow_sorts_by_duration(self, client):
        client.get("/healthz")
        client.get("/version")
        _, payload, _ = client.get("/debug/slow?n=5")
        durations = [r["duration_s"] for r in payload["data"]["requests"]]
        assert durations == sorted(durations, reverse=True)

    def test_debug_trace_resolves_and_exports_chrome_trace(self, client):
        tid = "debug-trace-test-1"
        client.get("/wall/projections", headers={"X-Trace-Id": tid})
        status, payload, _ = client.get(f"/debug/trace/{tid}")
        assert status == 200
        data = payload["data"]
        assert data["trace_id"] == tid
        assert data["span_count"] >= 1
        span_names = {
            s["name"] for r in data["records"] for s in r["spans"]
        }
        assert "serve.request" in span_names
        events = data["chrome_trace"]["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert all(
            e["args"]["trace_id"] == tid for e in events if e["ph"] == "X"
        )

    def test_route_latency_is_the_recorded_duration(
        self, server, client, monkeypatch
    ):
        # One stopwatch per request: the route histogram observes exactly
        # the duration the flight recorder keeps.
        registry = MetricsRegistry()
        monkeypatch.setattr("repro.serve.app.metrics", lambda: registry)
        _, _, headers = client.get("/version")
        (record,) = server.app.recorder.trace(headers["x-trace-id"])
        histogram = registry.histogram(f"serve.latency_s.{record.route}")
        assert histogram.count == 1
        assert histogram.sum_s == record.duration_s

    def test_job_duration_is_the_recorded_duration(
        self, server, client, monkeypatch
    ):
        # One clock per job: the jobs histogram observes exactly the
        # duration of the job's flight-recorder row.
        registry = MetricsRegistry()
        monkeypatch.setattr("repro.serve.jobs.metrics", lambda: registry)
        sweep = {"workload": "TRD", "nodes": [5.0], "partitions": [1, 2],
                 "simplifications": [1]}
        status, payload, headers = client.post("/sweeps", sweep)
        assert status == 202
        job_id = payload["data"]["job"]["job_id"]
        for _ in range(20000):  # polls, no sleeps: each answer is a round trip
            _, payload, _ = client.get(f"/sweeps/{job_id}")
            if payload["data"]["job"]["status"] in ("done", "failed"):
                break
        assert payload["data"]["job"]["status"] == "done"
        rows = server.app.recorder.trace(headers["x-trace-id"])
        (record,) = [row for row in rows if row.route == "job.sweep"]
        histogram = registry.histogram("serve.jobs.duration_s")
        assert histogram.count == 1
        assert histogram.sum_s == record.duration_s

    def test_debug_trace_unknown_id_is_404(self, client):
        status, payload, _ = client.get("/debug/trace/no-such-trace")
        assert status == 404
        assert "flight recorder" in payload["data"]["error"]

    def test_latency_histogram_family_is_served(self, client):
        client.get("/healthz")
        _, text, _ = client.get("/metrics", raw=True)
        assert "# TYPE repro_serve_latency_s histogram" in text
        assert 'repro_serve_latency_s_bucket{le="+Inf"}' in text
        assert "repro_serve_latency_s_sum" in text
        # The per-route family exists too.
        assert "repro_serve_latency_s_healthz_count" in text


class TestCli:
    def test_tail_once_prints_recent_requests(self, server, client, capsys):
        client.get("/healthz", headers={"X-Trace-Id": "tail-test-1"})
        rc = main(
            ["tail", "--url", f"http://127.0.0.1:{server.port}", "--once"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace=tail-test-1" in out
        assert "/healthz" in out

    def test_tail_unreachable_server_fails(self, capsys):
        rc = main(["tail", "--url", "http://127.0.0.1:9", "--once"])
        assert rc == 1

    def test_stats_format_json(self, capsys):
        assert main(["stats", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, dict)
