"""Tests of the benchmark harness itself (no servers, no timing asserts).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import copy
import io
import json
import math

import pytest

import checks
import child
import layers
import loadgen
import run
import speed
import traffic
from loadgen import Outcome, Request, StepResult


# -- seeded schedules ---------------------------------------------------------------


def _key(requests):
    return [(r.family, r.method, r.path, r.body, r.due_s) for r in requests]


def test_evaluate_schedule_is_a_function_of_the_seed():
    a = traffic.evaluate_schedule(7, n=400)
    assert _key(a) == _key(traffic.evaluate_schedule(7, n=400))
    assert _key(a) != _key(traffic.evaluate_schedule(8, n=400))


def test_evaluate_schedule_mix_and_fresh_points_never_repeat():
    requests = traffic.evaluate_schedule(3, n=2000)
    families = [r.family for r in requests]
    for start in range(0, len(requests), 50):  # every block of 50 has the exact mix
        block = families[start:start + 50]
        assert (block.count("evaluate.hot"), block.count("attribute")) == (20, 1)
    attributed = [r.body["workload"] for r in requests if r.family == "attribute"]
    assert len(set(attributed[:16])) == 16
    fresh = [tuple(sorted(r.body.items())) for r in requests if r.family == "evaluate.fresh"]
    assert len(fresh) == len(set(fresh))
    hot = {tuple(sorted(r.body.items())) for r in requests if r.family == "evaluate.hot"}
    assert len(hot) <= traffic.HOT_POINTS
    assert all(r.body["full"] for r in requests if r.family == "attribute")


@pytest.fixture(scope="module")
def names():
    return traffic.model_names()


def test_model_schedules_are_functions_of_the_seed(names):
    a = traffic.model_schedule(5, names, n=300)
    assert _key(a) == _key(traffic.model_schedule(5, names, n=300))
    assert _key(a) != _key(traffic.model_schedule(6, names, n=300))
    p = traffic.poisson_schedule(5, 30.0, 10.0, names)
    assert _key(p) == _key(traffic.poisson_schedule(5, 30.0, 10.0, names))
    assert _key(p) != _key(traffic.poisson_schedule(6, 30.0, 10.0, names))
    dues = [r.due_s for r in p]
    assert dues == sorted(dues) and 0.0 < dues[0] and dues[-1] < 10.0


def test_model_schedule_skips_dse_artifacts(names):
    assert "fig13" not in names["artifacts"] and "fig14" not in names["artifacts"]
    assert len(names["artifacts"]) == 31
    paths = {r.path for r in traffic.model_schedule(1, names, n=2000)}
    assert not any(p.startswith(("/artifacts/fig13", "/artifacts/fig14")) for p in paths)


# -- percentiles ----------------------------------------------------------------------


def test_supported_percentile_needs_ten_samples_beyond():
    assert loadgen.supported_percentile(9) is None
    assert loadgen.supported_percentile(20) == 50.0
    assert loadgen.supported_percentile(100) == 90.0
    assert loadgen.supported_percentile(199) == 90.0
    assert loadgen.supported_percentile(200) == 95.0
    assert loadgen.supported_percentile(1000) == 99.0


def test_percentile_is_nearest_rank_and_failures_are_infinite():
    values = [float(i) for i in range(1, 101)]
    assert loadgen.percentile(values, 50.0) == 50.0
    assert loadgen.percentile(values, 95.0) == 95.0
    failed = values[:94] + [math.inf] * 6
    assert loadgen.percentile(failed, 95.0) == math.inf
    assert loadgen.percentile(failed, 94.0) == 94.0


def test_end_to_end_metrics_count_failures_as_infinite():
    metrics = run.end_to_end([0.3, 0.1, 0.2], [3.0, 1.0, 2.5], 6.0, 50.0)
    assert metrics["trimmed_mean_ms"] == pytest.approx(6500.0 / 3) and metrics["setup_s"] == 0.2
    assert metrics["throughput"] == 0.5
    metrics = run.end_to_end([0.2], [1.0] * 19 + [math.inf], 4.0, 50.0)
    assert metrics["trimmed_mean_ms"] == math.inf and metrics["throughput"] == 4.75


def test_a_phase_is_scaled_by_the_speed_sampled_during_it(monkeypatch):
    readings = iter([2e-4, 4e-4, 3e-4, 1e-4])
    monkeypatch.setattr(speed, "measure", lambda: next(readings))
    sampler = speed.Sampler()
    sampler.samples.append(speed.measure())  # as the timer would
    assert sampler.split() == pytest.approx(3e-4)  # the timer's sample and one at the split
    assert sampler.split() == pytest.approx(3e-4)  # no timer sample: the split's own
    assert sampler.split() == pytest.approx(1e-4)
    assert speed.scale(2 * speed.REFERENCE_S) == 0.5


def test_the_ready_hook_runs_once_before_the_serving_line():
    stream, seen = io.StringIO(), []
    out = child._AtReady(stream, lambda: seen.append(stream.getvalue()))
    print("starting", file=out)
    print("serving on http://127.0.0.1:1 [run] x", file=out, flush=True)
    print("serving on again", file=out)
    assert seen == ["starting\n"]
    assert stream.getvalue().count("serving on") == 2


def test_a_batch_run_stops_nearest_to_its_length():
    assert not run.another_fits(7.0, 1, 10.0)   # a second 7 s run ends at 14
    assert run.another_fits(6.0, 1, 10.0)       # ... a second 6 s one at 12
    assert run.another_fits(9.0, 10, 10.0)
    assert not run.another_fits(9.6, 10, 10.0)


def test_trimmed_mean_drops_a_tenth_at_each_end():
    values = [1.0] * 8 + [100.0, 0.0]
    assert run.trimmed_mean(values) == 1.0
    assert run.trimmed_mean([2.0, 4.0]) == 3.0
    assert run.trimmed_mean(values + [5.0] * 10) == 3.25  # 7 ones and 9 fives remain


def test_closed_percentiles_report_p95_only_with_ten_samples_beyond():
    few = run.closed_percentiles([3.0, 1.0, 2.0])
    assert few == {"p50_ms.closed": 2000.0, "p95_ms.closed": 0.0}
    many = [i / 1e3 for i in range(1, 301)]
    assert run.closed_percentiles(many) == {"p50_ms.closed": 150.0, "p95_ms.closed": 285.0}
    failed = many[:280] + [math.inf] * 20
    assert run.closed_percentiles(failed)["p95_ms.closed"] == math.inf


def test_failed_outcomes_report_infinite_latency():
    ok = Outcome(Request("f", "GET", "/"), status=200, latency_s=0.01, sent=True)
    refused = Outcome(Request("f", "GET", "/"), status=503, latency_s=0.01, sent=True)
    unsent = Outcome(Request("f", "GET", "/"))
    step = StepResult([ok, refused, unsent])
    assert step.latencies_s() == [0.01, math.inf, math.inf]
    assert step.failed == 2


# -- rungs ----------------------------------------------------------------------------


def _step(latencies_ms, late_s=0.0, failures=0, unsent=0):
    outcomes = [
        Outcome(Request("f", "GET", "/", due_s=i * 0.01), status=200,
                latency_s=ms / 1e3, sent=True, late_s=late_s)
        for i, ms in enumerate(latencies_ms)
    ]
    outcomes += [
        Outcome(Request("f", "GET", "/"), status=500, sent=True) for _ in range(failures)
    ]
    outcomes += [Outcome(Request("f", "GET", "/")) for _ in range(unsent)]
    return StepResult(outcomes)


def test_rung_passes_under_the_limits():
    verdict = loadgen.rung_verdict(_step([5.0] * 190 + [90.0] * 10))
    assert verdict["passed"] and verdict["p95_ms"] == 5.0


def test_rung_fails_on_p95_errors_or_backlog():
    assert not loadgen.rung_verdict(_step([5.0] * 180 + [150.0] * 20))["passed"]
    assert not loadgen.rung_verdict(_step([5.0] * 195, failures=5))["passed"]
    assert loadgen.rung_verdict(_step([5.0] * 199, failures=1))["passed"]
    assert not loadgen.rung_verdict(_step([5.0] * 200, late_s=1.5))["passed"]
    assert loadgen.rung_verdict(_step([5.0] * 200, late_s=0.5))["passed"]
    assert not loadgen.rung_verdict(_step([5.0] * 200, unsent=1))["passed"]


def test_max_rate_needs_every_lower_rung_to_pass():
    rungs = [
        {"rate_rps": 10.0, "passed": True},
        {"rate_rps": 30.0, "passed": False},
        {"rate_rps": 90.0, "passed": True},
    ]
    assert loadgen.max_rate(rungs) == 10.0
    assert loadgen.max_rate([{"rate_rps": 10.0, "passed": False}] + rungs[1:]) == 0.0
    assert loadgen.max_rate([dict(r, passed=True) for r in rungs]) == 90.0


def test_backlog_is_judged_on_the_last_request_sent():
    step = _step([5.0] * 200)
    step.outcomes[50].late_s = 3.0  # a stall the generator recovered from
    assert loadgen.rung_verdict(step)["passed"]
    step.outcomes[-1].late_s = 1.2
    assert not loadgen.rung_verdict(step)["passed"]


# -- self time ------------------------------------------------------------------------


def test_union_length_counts_overlaps_once():
    assert layers.union_length([]) == 0.0
    assert layers.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert layers.union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    assert layers.self_time((0.0, 10.0), []) == 10.0
    assert layers.self_time((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 3.0
    assert layers.self_time((0.0, 10.0), [(-5.0, 20.0)]) == 0.0
    assert layers.self_time((0.0, 10.0), [(11.0, 12.0)]) == 10.0


def test_tracer_summary_reduces_nested_and_cross_thread_spans():
    tracer = layers.LayerTracer()
    tracer.started, tracer.ended = 0.0, 20.0
    tracer.spans = [
        ("reporting", "call", 1, 1.0, 11.0, -1),
        ("accel.scheduler", "call", 1, 2.0, 6.0, 0),
        ("accel.scheduler", "call", 2, 4.0, 8.0, 0),   # worker thread, overlaps
        ("cmos.model", "load", 1, 12.0, 13.0, -1),
    ]
    summary = tracer.summary()
    assert summary["reporting.self_s"] == 4.0   # 10 minus the union [2, 8]
    assert summary["accel.scheduler.self_s"] == 8.0
    assert summary["accel.scheduler.calls"] == 2
    assert summary["cmos.model.calls"] == 0      # a module load is not a call
    assert summary["cmos.model.self_s"] == 1.0
    assert summary["traced_wall_s"] == 20.0
    assert summary["unspanned_s"] == 9.0


def test_layer_of_uses_the_longest_prefix():
    assert layers.layer_of("repro.accel.scheduler") == "accel.scheduler"
    assert layers.layer_of("repro.workloads.fft") == "accel.trace"
    assert layers.layer_of("repro.cmos.tdp") == "cmos.fit"
    assert layers.layer_of("repro.cmos.model") == "cmos.model"
    assert layers.layer_of("repro.obs.trace") is None


def test_wrapping_records_calls_and_keeps_results():
    tracer = layers.LayerTracer()
    traced = tracer.wrap(lambda x: x * 2, "check")
    assert traced(21) == 42
    with pytest.raises(ZeroDivisionError):
        tracer.wrap(lambda: 1 / 0, "check")()
    assert [s[0] for s in tracer.spans] == ["check", "check"]
    assert tracer.summary()["check.calls"] == 2


# -- output checks ---------------------------------------------------------------------


def test_a_perturbed_golden_number_is_flagged():
    reference = checks.load_reference("paper_model")
    result = {"golden": dict(reference["golden"]),
              "checks": {name: True for name in reference["checks"]}}
    assert checks.golden_problems(reference, result) == []
    name = next(n for n, v in sorted(result["golden"].items()) if abs(v) > 1.0)
    result["golden"][name] *= 1 + 1e-6
    problems = checks.golden_problems(reference, result)
    assert len(problems) == 1 and name in problems[0]


def test_added_removed_quantities_and_failed_checks_are_flagged():
    reference = {"golden": {"a": 1.0, "b": 2.0}, "checks": ["x/y"]}
    added = {"golden": {"a": 1.0, "b": 2.0, "c": 3.0}, "checks": {"x/y": True}}
    removed = {"golden": {"a": 1.0}, "checks": {"x/y": True}}
    failing = {"golden": {"a": 1.0, "b": 2.0}, "checks": {"x/y": False}}
    assert "added" in checks.golden_problems(reference, added)[0]
    assert "removed" in checks.golden_problems(reference, removed)[0]
    assert "check failed" in checks.golden_problems(reference, failing)[0]


def test_canonical_text_tells_apart_the_last_bit():
    assert checks.canonical({"a": 0.1, "b": [1, 2]}) == checks.canonical({"b": (1, 2), "a": 0.1})
    assert checks.canonical({"a": 0.1}) != checks.canonical({"a": math.nextafter(0.1, 1.0)})


def test_mismatching_response_is_marked():
    good = Outcome(Request("f", "GET", "/"), status=200, latency_s=0.01,
                   data={"data": {"x": 1.0}})
    bad = copy.deepcopy(good)
    bad.data["data"]["x"] = 1.5
    assert checks.mismatches([good, bad], lambda o: {"x": 1.0}) == [bad]
    assert bad.error and not good.error


def test_check_sample_is_seeded_and_capped():
    outcomes = [
        Outcome(Request(f, "GET", f"/{i}"), status=200, latency_s=0.01)
        for f in ("a", "b") for i in range(50)
    ]
    first = checks.sample_for_check(outcomes, 1, {"a": 5})
    assert first == checks.sample_for_check(outcomes, 1, {"a": 5})
    assert sum(o.request.family == "a" for o in first) == 5
    assert sum(o.request.family == "b" for o in first) == 50


# -- the metric set ---------------------------------------------------------------------


def test_every_declared_metric_is_produced():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = run.end_to_end([0.2], [0.01] * 30, 1.0, 50.0)
    assert {m["name"] for m in spec["end_to_end"]} == set(end_to_end)
    rung = loadgen.rung_verdict(_step([5.0] * 200))
    produced = set(layers.LayerTracer().summary())
    produced |= set(run.accel_counters({}))
    produced |= set(run.serve_layer_metrics({}, StepResult()))
    produced |= set(run.closed_percentiles([0.01] * 30))
    produced |= set(run.ladder_metrics([
        {"rung": "low", "rate_rps": 10.0, **rung},
        {"rung": "high", "rate_rps": 30.0, **rung},
    ]))
    produced.add("trace_overhead_s")
    assert {m["name"] for m in spec["per_layer"]} <= produced
