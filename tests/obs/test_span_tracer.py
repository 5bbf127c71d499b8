"""Tests for the span tracer and its Chrome trace-event export."""

import json
import os
import pickle
import threading

import pytest

from repro.obs.trace import Span, Tracer, get_tracer, set_tracer, span


class TestSpanRecording:
    def test_records_name_timing_and_track(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        (recorded,) = tracer.spans
        assert recorded.name == "work"
        assert recorded.duration_s >= 0.0
        assert recorded.pid == os.getpid()
        assert recorded.tid == threading.get_ident()
        assert recorded.depth == 0
        assert recorded.end_s == pytest.approx(
            recorded.start_s + recorded.duration_s
        )

    def test_attrs_carried_through(self):
        tracer = Tracer()
        with tracer.span("sweep", kernel="TRD", designs=96):
            pass
        assert tracer.spans[0].attrs == {"kernel": "TRD", "designs": 96}

    def test_nesting_depth_and_containment(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["outer"].contains(by_name["inner"])
        assert not by_name["inner"].contains(by_name["outer"])

    def test_inner_span_finishes_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_sibling_spans_back_at_same_depth(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.depth for s in tracer.spans] == [0, 0]

    def test_span_recorded_even_when_body_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in tracer.spans] == ["doomed"]
        # The stack unwound: the next span is top-level again.
        with tracer.span("after"):
            pass
        assert tracer.spans[1].depth == 0

    def test_spans_are_picklable(self):
        tracer = Tracer()
        with tracer.span("chunk", kernel="S3D"):
            pass
        clone = pickle.loads(pickle.dumps(tracer.spans[0]))
        assert clone == tracer.spans[0]


class TestTracerCollection:
    def test_drain_empties_and_returns(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        drained = tracer.drain()
        assert [s.name for s in drained] == ["a"]
        assert len(tracer) == 0

    def test_absorb_merges_foreign_spans(self):
        parent, worker = Tracer(), Tracer()
        with parent.span("parent"):
            pass
        with worker.span("worker"):
            pass
        parent.absorb(worker.drain())
        assert sorted(s.name for s in parent.spans) == ["parent", "worker"]


class TestModuleLevelSpan:
    def test_noop_without_tracer(self):
        assert get_tracer() is None
        with span("ignored", anything=1):
            pass  # must not raise, must not record anywhere

    def test_records_on_installed_tracer(self):
        tracer = Tracer()
        assert set_tracer(tracer) is None
        try:
            with span("hello", n=2):
                pass
        finally:
            assert set_tracer(None) is tracer
        assert [s.name for s in tracer.spans] == ["hello"]

    def test_set_tracer_returns_previous(self):
        first, second = Tracer(), Tracer()
        set_tracer(first)
        assert set_tracer(second) is first
        assert get_tracer() is second
        set_tracer(None)


class TestChromeExport:
    def test_event_schema(self):
        tracer = Tracer()
        with tracer.span("outer", kind="demo"):
            with tracer.span("inner"):
                pass
        events = tracer.chrome_events()
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert isinstance(event["args"], dict)

    def test_timestamps_rebased_to_zero(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        events = tracer.chrome_events()
        assert min(e["ts"] for e in events) == 0.0

    def test_events_sorted_by_start(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [e["name"] for e in tracer.chrome_events()]
        assert names == ["outer", "inner"]  # start order, not finish order

    def test_export_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("schedule", partition=4):
            pass
        path = tracer.export_chrome(tmp_path / "sub" / "trace.json")
        assert path.exists()
        payload = json.loads(path.read_text())
        assert set(payload) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert payload["displayTimeUnit"] == "ms"
        (event,) = payload["traceEvents"]
        assert event["name"] == "schedule"
        assert event["args"] == {"partition": 4}

    def test_empty_tracer_exports_empty_list(self, tmp_path):
        path = Tracer().export_chrome(tmp_path / "empty.json")
        assert json.loads(path.read_text())["traceEvents"] == []


class TestStageRows:
    # Synthetic spans on dyadic times, so every expected value is exact.
    # The parent process (pid 1) runs root [0, 8) with two calls of child
    # ([1, 3) and [4, 6)) and one grandchild [1.5, 2.5) inside the first
    # child.  A worker (pid 2) runs a top-level span [4, 16), in parallel
    # with the root: wall time is the union [0, 16).
    T0 = 100.0

    def _spans(self, worker=True):
        t = self.T0
        spans = [
            Span("child", t + 1.0, 2.0, 1, 1, 1),
            Span("grandchild", t + 1.5, 1.0, 1, 1, 2),
            Span("child", t + 4.0, 2.0, 1, 1, 1),
            Span("root", t, 8.0, 1, 1, 0),
        ]
        if worker:
            spans.append(Span("chunk", t + 4.0, 12.0, 2, 1, 0))
        return spans

    def test_self_time_share_of_wall_and_order(self):
        tracer = Tracer()
        tracer.absorb(self._spans())
        assert tracer.stage_rows() == [
            {"stage": "chunk", "calls": 1, "self_s": 12.0, "total_s": 12.0,
             "share": 75.0},
            {"stage": "root", "calls": 1, "self_s": 4.0, "total_s": 8.0,
             "share": 25.0},
            {"stage": "child", "calls": 2, "self_s": 3.0, "total_s": 4.0,
             "share": 18.75},
            {"stage": "grandchild", "calls": 1, "self_s": 1.0,
             "total_s": 1.0, "share": 6.25},
        ]

    def test_serial_self_times_add_up_to_the_root(self):
        tracer = Tracer()
        tracer.absorb(self._spans(worker=False))
        rows = tracer.stage_rows()
        root = next(row for row in rows if row["stage"] == "root")
        assert sum(row["self_s"] for row in rows) == root["total_s"] == 8.0
        assert sum(row["share"] for row in rows) == 100.0

    def test_recorded_spans_add_up(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child"):
                pass
        rows = tracer.stage_rows()
        root = next(row for row in rows if row["stage"] == "root")
        assert {row["stage"]: row["calls"] for row in rows} == {
            "root": 1, "child": 2, "grandchild": 1,
        }
        # The depths the tracer records nest the rows, whatever the clock
        # read: self times add up to the root's inclusive time.
        assert sum(row["self_s"] for row in rows) == pytest.approx(
            root["total_s"], abs=1e-12
        )
        for row in rows:
            assert isinstance(row["self_s"], float)
            assert isinstance(row["share"], float)

    def test_empty_tracer_has_no_rows(self):
        assert Tracer().stage_rows() == []
