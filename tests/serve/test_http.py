"""End-to-end tests against a live in-process server.

The headline property: a served payload is *the same numbers* as the
offline ``repro export`` artifact — verified through the provenance
drift comparator, the same machinery CI uses to gate golden drift
between runs.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import http.client
import io
import json
import logging
import re
import socket
from typing import List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.provenance.drift import compare_golden, flatten_scalars
from repro.provenance.manifest import SCHEMA_VERSION, RunLedger
from repro.obs.log import ROOT_LOGGER, configure_logging
from repro.serve import ServeApp, ServeConfig, ServerHandle
from repro.serve.router import encode_json
from repro.wall.limits import _limits
from tests.serve.conftest import ServeClient, make_server

#: Artifacts cheap enough to export inside a test; fig13 is the one that
#: runs the sweep engine.
PARITY_ARTIFACTS = ("fig1", "fig3d", "fig13", "fig15_16", "table5")


@pytest.fixture
def blocking_calls(server, monkeypatch):
    """Every function the shared server sends to its thread pool."""
    calls = []
    run_blocking = server.app.run_blocking

    async def counting(fn):
        calls.append(fn)
        return await run_blocking(fn)

    monkeypatch.setattr(server.app, "run_blocking", counting)
    return calls


class TestProvenanceEnvelope:
    def test_every_endpoint_carries_the_envelope(self, client):
        for target in ("/healthz", "/version", "/artifacts", "/wall/projections"):
            status, payload, headers = client.get(target)
            assert status == 200, target
            assert payload["schema_version"] == SCHEMA_VERSION
            server_block = payload["server"]
            assert server_block["command"] == "serve"
            assert server_block["run_id"]
            assert "data" in payload
            # Headers repeat the stamp for non-JSON consumers.
            assert headers["x-run-id"] == server_block["run_id"]
            assert headers["x-schema-version"] == str(SCHEMA_VERSION)

    def test_run_id_is_recorded_in_the_ledger(self, client, server_runs_dir):
        _, payload, _ = client.get("/healthz")
        run_id = payload["server"]["run_id"]
        manifest = RunLedger(server_runs_dir).get(run_id)
        assert manifest.command == "serve"

    def test_error_responses_are_enveloped_too(self, client):
        status, payload, _ = client.get("/no/such/route")
        assert status == 404
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["data"]["status"] == 404

    @pytest.mark.parametrize(
        "data",
        [
            {"outer": {"list": [1, 2.5, None, True], "deep": [{"k": "v"}]}},
            [0.1, 1e-300, 1.7976931348623157e308, -0.0, 3, 2.0 / 3.0],
            {"text": "na\u00efve \u2603 \u03bcm", "\u043a\u043b\u044e\u0447": "\u00e9"},
            {"error": "unknown artifact 'fig99'", "status": 404, "valid": ["a"]},
            None,
        ],
        ids=["nested", "floats", "non-ascii", "error", "null"],
    )
    def test_envelope_head_splices_any_data(self, server, data):
        app = server.app
        text = json.dumps(data)
        expected = json.dumps(app.envelope(data)) + "\n"
        assert app._envelope_head + text.encode() + b"}\n" == expected.encode()
        assert app.json_response(data).body == expected.encode()
        assert app.json_response(text.encode()).body == expected.encode()


class TestOperationalSurface:
    def test_healthz(self, client):
        status, payload, _ = client.get("/healthz")
        data = payload["data"]
        assert status == 200
        assert data["status"] == "ok"
        assert data["uptime_s"] >= 0
        assert "FFT" in data["workloads"]
        assert set(data["jobs"]) >= {"queued", "running", "done"}

    def test_version_matches_package(self, client):
        import repro

        _, payload, _ = client.get("/version")
        assert payload["data"]["version"] == repro.__version__

    def test_metrics_prometheus_text(self, client):
        client.get("/healthz")  # ensure at least one counted request
        status, text, headers = client.get("/metrics", raw=True)
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert "# TYPE repro_serve_requests counter" in text
        assert "repro_serve_latency_s_count" in text
        assert "repro_serve_requests_healthz" in text

    def test_method_not_allowed(self, client):
        status, payload, headers = client.post("/healthz", {})
        assert status == 405
        assert "GET" in headers["allow"]


class TestGoldenParity:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        from repro.reporting.export import export_all

        out = tmp_path_factory.mktemp("artifacts")
        paths = export_all(out, names=list(PARITY_ARTIFACTS))
        return {
            name: json.loads(path.read_text())["data"]
            for name, path in paths.items()
        }

    @pytest.mark.parametrize("name", PARITY_ARTIFACTS)
    def test_served_artifact_matches_export_byte_for_byte(
        self, client, exported, name
    ):
        status, payload, _ = client.get(f"/artifacts/{name}")
        assert status == 200
        served = payload["data"]
        # Strict form: identical JSON serialisation.
        assert json.dumps(served, sort_keys=True) == json.dumps(
            exported[name], sort_keys=True
        )
        # And through the drift comparator (the CI gate): zero drift.
        compared, drifted, added, removed = compare_golden(
            flatten_scalars(exported[name], name),
            flatten_scalars(served, name),
        )
        assert compared > 0
        assert drifted == [] and added == [] and removed == []

    def test_artifact_index_lists_known_names(self, client):
        _, payload, _ = client.get("/artifacts")
        names = payload["data"]["artifacts"]
        assert set(PARITY_ARTIFACTS) <= set(names)

    def test_unknown_artifact_404_lists_valid_names(self, client):
        status, payload, _ = client.get("/artifacts/fig99")
        assert status == 404
        assert "fig3d" in payload["data"]["valid_artifacts"]

    def test_wall_projections_equals_fig15_16_artifact(self, client, exported):
        _, payload, _ = client.get("/wall/projections")
        assert payload["data"] == exported["fig15_16"]


class TestTechEndpoints:
    """The technology-backend surface: GET /tech and ?tech= parameters."""

    def test_tech_index_lists_registered_backends(self, client):
        from repro.tech import backend_names

        status, payload, _ = client.get("/tech")
        assert status == 200
        data = payload["data"]
        assert data["baseline"] == "cmos"
        listed = [entry["name"] for entry in data["technologies"]]
        assert listed == backend_names()
        for entry in data["technologies"]:
            assert len(entry["param_hash"]) == 64
            assert entry["source"]

    def test_projections_tech_parity_with_exported_artifact(
        self, client, tmp_path
    ):
        """?tech=tfet serves the exported fig15_16_tfet numbers (drift gate)."""
        from repro.reporting.export import export_all

        exported = json.loads(
            export_all(tmp_path, names=["fig15_16_tfet"])[
                "fig15_16_tfet"
            ].read_text()
        )["data"]
        status, payload, _ = client.get("/wall/projections?tech=tfet")
        assert status == 200
        data = payload["data"]
        assert data["tech"] == "tfet"
        assert data["baseline"] == "cmos"
        compared, drifted, added, removed = compare_golden(
            flatten_scalars(exported, "fig15_16_tfet"),
            flatten_scalars(data["projections"], "fig15_16_tfet"),
        )
        assert compared > 0
        assert drifted == [] and added == [] and removed == []

    def test_tech_cmos_is_the_default_response(self, client):
        _, plain, _ = client.get("/wall/projections")
        _, cmos, _ = client.get("/wall/projections?tech=cmos")
        assert cmos["data"] == plain["data"]

    def test_unknown_tech_is_a_400_with_valid_names(self, client):
        from repro.tech import backend_names

        for target in (
            "/wall/projections?tech=graphene",
            "/cmos/gains?node=5&tech=graphene",
            "/csr/video?tech=graphene",
        ):
            status, payload, _ = client.get(target)
            assert status == 400, target
            assert payload["data"]["valid_technologies"] == backend_names()

    def test_gains_tech_parameter_switches_the_model(self, client):
        from repro.tech import get_backend

        status, payload, _ = client.get("/cmos/gains?node=5&tdp_w=50&tech=tfet")
        assert status == 200
        data = payload["data"]
        assert data["tech"] == "tfet"
        gains = get_backend("tfet").model().evaluate(
            5.0, 1000.0, area_mm2=100.0, tdp_w=50.0
        )
        assert data["power_w"] == gains.power_w
        # The default response keeps its pre-tech shape: no "tech" key.
        _, plain, _ = client.get("/cmos/gains?node=5&tdp_w=50")
        assert "tech" not in plain["data"]

    def test_per_tech_artifacts_resolve_via_the_registry(self, client):
        _, payload, _ = client.get("/artifacts")
        names = payload["data"]["artifacts"]
        assert {"fig15_16_tfet", "tech_delta_chiplet", "fig3d"} <= set(names)
        status, payload, _ = client.get("/artifacts/tech_delta_finfet")
        assert status == 200
        assert payload["data"]["tech"] == "finfet"
        assert payload["data"]["rows"]


class TestQueryEndpoints:
    def test_cmos_gains_matches_direct_model(self, client):
        from repro.cmos.model import CmosPotentialModel

        status, payload, _ = client.get("/cmos/gains?node=5&tdp_w=100")
        assert status == 200
        data = payload["data"]
        model = CmosPotentialModel.paper()
        gains = model.evaluate(5.0, 1000.0, area_mm2=100.0, tdp_w=100.0)
        base = model.evaluate(45.0, 1000.0, area_mm2=100.0, tdp_w=100.0)
        assert data["power_w"] == gains.power_w
        assert data["throughput_gain"] == gains.throughput / base.throughput

    def test_cmos_gains_requires_node(self, client):
        status, payload, _ = client.get("/cmos/gains")
        assert status == 400
        assert "node" in payload["data"]["error"]

    def test_csr_series_matches_study(self, client):
        from repro.cmos.model import CmosPotentialModel
        from repro.studies import named_study

        status, payload, _ = client.get("/csr/bitcoin")
        assert status == 200
        data = payload["data"]
        model = CmosPotentialModel.paper()
        study = named_study("bitcoin")
        series = study.performance_series(model)
        assert data["study"] == study.name
        assert [p["csr"] for p in data["series"]] == [p.csr for p in series]
        assert data["summary"] == study.summary(model)

    def test_unknown_study_lists_valid_names(self, client):
        status, payload, _ = client.get("/csr/nope")
        assert status == 400
        assert "video" in payload["data"]["valid_studies"]

    def test_whatif_identity_scales_match_baseline(self, client):
        status, payload, _ = client.post(
            "/wall/whatif", {"domain": "bitcoin_mining"}
        )
        assert status == 200
        data = payload["data"]
        assert data["scenario"]["physical_limit"] == pytest.approx(
            data["baseline"]["physical_limit"]
        )

    def test_whatif_rejects_unknown_domain_and_bad_scale(self, client):
        status, payload, _ = client.post("/wall/whatif", {"domain": "nope"})
        assert status == 400
        assert "video_decoding" in payload["data"]["valid_domains"]
        status, payload, _ = client.post(
            "/wall/whatif", {"domain": "bitcoin_mining", "die_scale": -1}
        )
        assert status == 400

    def test_evaluate_matches_direct_evaluation(self, client):
        from repro.accel.design import DesignPoint
        from repro.accel.power import evaluate_design
        from repro.workloads import get_workload

        point = {"node_nm": 5.0, "partition": 16, "simplification": 5,
                 "heterogeneity": True}
        status, payload, _ = client.post("/evaluate", {"workload": "FFT", **point})
        assert status == 200
        report = evaluate_design(get_workload("FFT").build(), DesignPoint(**point))
        assert payload["data"] == {
            "workload": report.kernel,
            "design": point,
            "runtime_s": report.runtime_s,
            "power_w": report.power_w,
            "energy_nj": report.energy_nj,
            "throughput_ops": report.throughput_ops,
            "energy_efficiency": report.energy_efficiency,
        }

    def test_evaluate_validates_input_types(self, client):
        bad = [
            {"workload": 42},
            {"workload": "FFT", "partition": "sixteen"},
            {"workload": "FFT", "partition": 3},       # not a power of two
            {"workload": "FFT", "simplification": 99},  # out of range
            {"workload": "NOPE"},
        ]
        for body in bad:
            status, payload, _ = client.post("/evaluate", body)
            assert status == 400, body
            assert "error" in payload["data"]

    def test_attribute_validates_input_types(self, client):
        bad = [
            {"workload": "FFT", "node_nm": "abc"},
            {"workload": "FFT", "node_nm": [5]},
            {"workload": "FFT", "node_nm": True},
            {"workload": "FFT", "baseline_node_nm": None},
        ]
        for body in bad:
            status, payload, _ = client.post("/attribute", body)
            assert status == 400, body
            assert "must be a" in payload["data"]["error"], body

    def test_attribute_equals_the_table3_attribution(self, client):
        from repro.accel.attribution import attribute_gains
        from repro.workloads import get_workload

        expected = attribute_gains(get_workload("RED").build(), "throughput")
        # The benchmark sends "full": true; like any unknown field it is
        # ignored.
        for body in ({"workload": "RED"}, {"workload": "RED", "full": True}):
            status, payload, _ = client.post("/attribute", body)
            assert status == 200
            assert payload["data"] == {
                "workload": expected.kernel,
                "metric": "throughput",
                "total_gain": expected.total_gain,
                "csr": expected.csr,
                "shares": expected.shares,
            }

    def test_attribute_returns_share_decomposition(self, client):
        status, payload, _ = client.post("/attribute", {"workload": "FFT"})
        assert status == 200
        data = payload["data"]
        assert data["workload"].upper() == "FFT"
        assert data["total_gain"] > 1
        assert isinstance(data["shares"], dict) and data["shares"]

    def test_malformed_json_body_is_400(self, client, server):
        import http.client as hc

        conn = hc.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/evaluate", body=b"{not json")
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert "JSON" in payload["data"]["error"]
        finally:
            conn.close()


class TestFiniteAnswersBuiltOncePerProcess:
    """Artifact and ``/csr`` payloads come from the process memo."""

    @pytest.fixture
    def fresh_memo(self, monkeypatch):
        import repro.memo

        monkeypatch.setattr(repro.memo, "_VALUES", {})

    def test_app_model_is_the_cmos_backend_model(self, server):
        from repro.tech import get_backend

        assert server.app.model is get_backend("cmos").model()

    def test_csr_series_is_computed_once_per_study_and_tech(
        self, client, fresh_memo, monkeypatch
    ):
        from repro.studies.base import CaseStudy

        calls = []
        series = CaseStudy.performance_series

        def counting(self, model, *args, **kwargs):
            calls.append(self.name)
            return series(self, model, *args, **kwargs)

        monkeypatch.setattr(CaseStudy, "performance_series", counting)
        first = client.get("/csr/bitcoin")[1]["data"]
        per_build = len(calls)
        assert per_build > 0
        for target in ["/csr/bitcoin"] * 4 + ["/csr/bitcoin?tech=cmos"] * 4:
            status, payload, _ = client.get(target)
            assert status == 200
            assert payload["data"] == first
        assert len(calls) == per_build
        for _ in range(4):
            assert client.get("/csr/bitcoin?tech=tfet")[0] == 200
        assert len(calls) == 2 * per_build

    def test_repeated_artifact_does_not_call_its_builder(
        self, client, fresh_memo, monkeypatch
    ):
        import repro.reporting.export as export

        built = []
        registry = export.artifact_registry

        def counting_registry(*args, **kwargs):
            def counted(name, builder):
                return lambda: built.append(name) or builder()

            return {
                name: counted(name, builder)
                for name, builder in registry(*args, **kwargs).items()
            }

        monkeypatch.setattr(export, "artifact_registry", counting_registry)
        payloads = [client.get("/artifacts/table5")[1]["data"] for _ in range(3)]
        assert built == ["table5"]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_memo_hit_does_not_use_the_thread_pool(
        self, client, fresh_memo, blocking_calls
    ):
        for target in ("/artifacts/table5", "/csr/video", "/wall/projections"):
            assert client.get(target)[0] == 200
            misses = len(blocking_calls)
            assert misses > 0
            assert client.get(target)[0] == 200
            assert len(blocking_calls) == misses

    def test_each_finite_answer_is_encoded_once(self, client, fresh_memo, monkeypatch):
        import repro.serve.app as app_module
        import repro.serve.handlers as handlers
        from repro.memo import peek

        encoded = []

        def counting(value):
            encoded.append(value)
            return encode_json(value)

        monkeypatch.setattr(app_module, "encode_json", counting)
        monkeypatch.setattr(handlers, "encode_json", counting)
        targets = (
            "/artifacts/table5",
            "/csr/video",
            "/csr/video?tech=tfet",
            "/wall/projections",
            "/wall/projections?tech=tfet",
        )
        first = [client.get(target, raw=True)[1] for target in targets]
        assert len(encoded) == len(targets)
        for _ in range(3):
            assert [client.get(target, raw=True)[1] for target in targets] == first
        assert len(encoded) == len(targets)
        # The memo holds each answer's data as text, without the envelope.
        for key, body in (
            (("serve.artifact", "table5"), first[0]),
            (("serve.csr", "video"), first[1]),
            (("serve.artifact", "fig15_16"), first[3]),
            (("serve.wall_projections", "tfet"), first[4]),
        ):
            found, text = peek(key)
            assert found and isinstance(text, bytes)
            assert json.loads(text) == json.loads(body)["data"]

    def test_unknown_artifact_stores_nothing(self, client, fresh_memo):
        from repro.memo import peek

        status, payload, _ = client.get("/artifacts/fig99")
        assert status == 404
        assert "table5" in payload["data"]["valid_artifacts"]
        assert peek(("serve.artifact", "fig99")) == (False, None)


class TestWhatIfReadsTheHeldWall:
    """A what-if miss reads the process's memoized cmos wall at one
    scaled limit chip: no series, no fits."""

    @staticmethod
    def _whatif(client, domain, metric, die, tdp, frequency):
        status, payload, _ = client.post(
            "/wall/whatif",
            {
                "domain": domain,
                "metric": metric,
                "die_scale": die,
                "tdp_scale": tdp,
                "frequency_scale": frequency,
            },
        )
        assert status == 200
        return payload["data"]

    @pytest.mark.parametrize("metric", ["performance", "efficiency"])
    @pytest.mark.parametrize("domain", sorted(_limits()))
    def test_unit_scales_are_the_baseline(self, client, domain, metric):
        data = self._whatif(client, domain, metric, 1.0, 1.0, 1.0)
        assert data["scenario"] == data["baseline"]

    def test_a_miss_fits_nothing(self, client, monkeypatch):
        import repro.wall.limits as limits
        from repro.cmos.model import CmosPotentialModel

        # Scales no other test asks for, so each request is a cache miss.
        for domain in sorted(_limits()):
            for metric in ("performance", "efficiency"):
                self._whatif(client, domain, metric, 1.125, 1.0, 1.0)
        fits, chips = [], []
        fit_projections = limits.fit_projections
        evaluate = CmosPotentialModel.evaluate

        def counting_fit(points):
            fits.append(points)
            return fit_projections(points)

        def counting_evaluate(self, *args, **kwargs):
            chips.append(args)
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(limits, "fit_projections", counting_fit)
        monkeypatch.setattr(CmosPotentialModel, "evaluate", counting_evaluate)
        self._whatif(client, "gaming_graphics", "performance", 1.375, 0.625, 1.25)
        assert fits == []
        assert 1 <= len(chips) <= 2


class TestWorkRunsWhereItCostsLeast:
    """Short computations run on the event loop; the thread pool keeps
    only work that can run long, and ``/attribute`` answers are held in
    the response LRU."""

    ATTRIBUTE = {"workload": "GMM", "metric": "energy_efficiency", "node_nm": 7.0}

    @pytest.fixture
    def attributions(self, monkeypatch):
        """The keyword arguments of every ``attribute_gains`` call the
        ``/attribute`` handler makes."""
        import repro.accel.attribution as attribution

        calls = []
        attribute_gains = attribution.attribute_gains

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return attribute_gains(*args, **kwargs)

        monkeypatch.setattr(attribution, "attribute_gains", counting)
        return calls

    def test_short_misses_do_not_use_the_thread_pool(
        self, client, blocking_calls, monkeypatch
    ):
        import repro.serve.handlers as handlers

        domain = sorted(_limits())[0]
        # Warm: the kernel is traced and the what-if wall is built.
        assert client.post("/evaluate", {"workload": "KNN"})[0] == 200
        assert client.post("/wall/whatif", {"domain": domain})[0] == 200
        computed = []

        def counted(name):
            compute = getattr(handlers, name)
            return lambda app, item: computed.append(name) or compute(app, item)

        for name in ("compute_evaluate", "compute_whatif"):
            monkeypatch.setattr(handlers, name, counted(name))
        del blocking_calls[:]
        # Points and scales no other test asks for, so each is a miss.
        assert client.get("/cmos/gains?node=7&frequency_mhz=1234.5")[0] == 200
        assert client.post(
            "/evaluate",
            {"workload": "KNN", "node_nm": 10.0, "partition": 16,
             "simplification": 5, "heterogeneity": False},
        )[0] == 200
        assert client.post(
            "/wall/whatif", {"domain": domain, "die_scale": 1.0625}
        )[0] == 200
        assert computed == ["compute_evaluate", "compute_whatif"]
        assert blocking_calls == []

    def test_attribute_miss_runs_on_the_pool_and_its_repeat_is_held(
        self, client, blocking_calls, attributions
    ):
        status, first, _ = client.post("/attribute", self.ATTRIBUTE, raw=True)
        assert status == 200
        assert len(blocking_calls) == 1 and len(attributions) == 1
        # The key is taken after validation: the abbreviation's case and
        # an integral node do not make a new entry.
        repeat = {**self.ATTRIBUTE, "workload": "gmm", "node_nm": 7}
        for body in (self.ATTRIBUTE, repeat):
            status, again, _ = client.post("/attribute", body, raw=True)
            assert status == 200
            assert again.partition('"data": ')[2] == first.partition('"data": ')[2]
        assert len(blocking_calls) == 1 and len(attributions) == 1

    def test_attribute_searches_on_the_evaluate_evaluator(
        self, client, server, attributions
    ):
        from repro.accel.attribution import attribute_gains
        from repro.workloads import build_kernel

        # Nodes no other test asks for, so both attributions are misses.
        nodes = {"node_nm": 10.0, "baseline_node_nm": 32.0}
        metrics = ("throughput", "energy_efficiency")
        assert client.post("/evaluate", {"workload": "GMM"})[0] == 200
        answers = {}
        for metric in metrics:
            status, payload, _ = client.post(
                "/attribute", {"workload": "GMM", "metric": metric, **nodes}
            )
            assert status == 200
            answers[metric] = payload["data"]
        evaluator = server.app.batch_evaluator("GMM")
        assert len(attributions) == 2
        assert all(call["batch"] is evaluator for call in attributions)
        # Counted too, but after the assertions above: no batch, so fresh.
        kernel = build_kernel("GMM")
        for metric in metrics:
            expected = attribute_gains(kernel, metric, **nodes)
            assert answers[metric] == {
                "workload": kernel.name,
                "metric": metric,
                "total_gain": expected.total_gain,
                "csr": expected.csr,
                "shares": expected.shares,
            }

    def test_without_the_response_cache_every_attribute_computes(
        self, attributions
    ):
        handle = make_server(response_cache=0)
        try:
            client = ServeClient(handle.port)
            bodies = {
                client.post("/attribute", {"workload": "RED"}, raw=True)[1]
                for _ in range(3)
            }
        finally:
            handle.stop()
        assert len(bodies) == 1
        assert len(attributions) == 3


class TestBatchingEquivalence:
    """Concurrent ``/evaluate`` requests each get their own correct answer."""

    def test_concurrent_identical_requests_return_identical_payloads(
        self, client, server
    ):
        body = {"workload": "GMM", "node_nm": 7.0, "partition": 32,
                "simplification": 7}
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            futures = [
                pool.submit(client.post, "/evaluate", body) for _ in range(8)
            ]
            responses = [f.result() for f in futures]
        assert all(status == 200 for status, _, _ in responses)
        bodies = {json.dumps(p["data"], sort_keys=True) for _, p, _ in responses}
        assert len(bodies) == 1  # every client gets the same answer

    def test_mixed_concurrent_traffic_is_correct_per_request(self, client):
        """Distinct concurrent payloads must each get their own answer."""
        bodies = [
            {"workload": "FFT", "node_nm": 5.0, "partition": p, "simplification": 1}
            for p in (1, 2, 4, 8, 16, 32)
        ]
        with concurrent.futures.ThreadPoolExecutor(len(bodies)) as pool:
            futures = [pool.submit(client.post, "/evaluate", b) for b in bodies]
            responses = [f.result() for f in futures]
        for body, (status, payload, _) in zip(bodies, responses):
            assert status == 200
            assert payload["data"]["design"]["partition"] == body["partition"]


# -- request framing fuzz ---------------------------------------------------------

#: Exceptions the connection handler turns into a close without a response.
CLOSE = (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError)

_heads = st.builds(
    "{} {} HTTP/1.1\r\nContent-Length: {}\r\n{}\r\n".format,
    st.sampled_from(["GET", "POST", "DELETE", "PUT", "get", ""]),
    st.one_of(
        st.sampled_from(
            ["/healthz", "/sweeps", "/evaluate", "/cmos/gains?node=5", "//[", "*"]
        ),
        st.text(max_size=24).map(lambda text: "/" + text),
    ),
    st.one_of(
        st.sampled_from(["abc", "-5", "", "+3", "1e3", "0x10", "\u00b2", "9" * 12]),
        st.integers(0, 64).map(str),
    ),
    st.sampled_from(["", "Connection: close\r\n", "Transfer-Encoding: chunked\r\n"]),
).map(lambda head: head.encode("utf-8"))

raw_requests = st.one_of(
    st.binary(max_size=256),
    st.tuples(_heads, st.binary(max_size=64)).map(b"".join),
)


def _exchange(port: int, payload: bytes) -> bytes:
    """Send *payload*, half-close, and read until the server closes."""
    chunks: List[bytes] = []
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        try:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except (ConnectionResetError, BrokenPipeError):
            pass  # the server closed on a framing error
    return b"".join(chunks)


def _statuses(stream: bytes) -> List[int]:
    """Status codes of the back-to-back responses in *stream*."""
    statuses = []
    while stream:
        head, sep, rest = stream.partition(b"\r\n\r\n")
        assert sep, f"truncated response head: {stream[:200]!r}"
        lines = head.decode("latin-1").split("\r\n")
        statuses.append(int(lines[0].split()[1]))
        fields = dict(line.lower().split(": ", 1) for line in lines[1:])
        stream = rest[int(fields["content-length"]):]
    return statuses


class TestRequestFraming:
    """Whatever bytes arrive, the reader parses a request, reports a clean
    close, or raises a framing error that closes the connection; the
    server answers below 500 or closes.  Never an unhandled exception in
    the connection task, never a hang."""

    @given(payload=raw_requests)
    @example(payload=b"POST /evaluate HTTP/1.1\r\nContent-Length: abc\r\n\r\n")
    @example(payload=b"POST /evaluate HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
    @example(payload=b"GET //[ HTTP/1.1\r\n\r\n")
    @example(payload=b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
    @settings(max_examples=150, deadline=None)
    def test_any_bytes_end_in_a_4xx_or_a_close(self, server, payload):
        async def read_one() -> None:
            reader = asyncio.StreamReader()  # start_server's default limit
            reader.feed_data(payload)
            reader.feed_eof()
            try:
                await asyncio.wait_for(server.app._read_request(reader, "fuzz"), 10)
            except CLOSE:
                pass

        asyncio.run(read_one())
        statuses = _statuses(_exchange(server.port, payload))
        assert all(status < 500 for status in statuses), statuses


# -- transport --------------------------------------------------------------------


def _read_requests(payload: bytes, count: int):
    """*count* results of ``_read_request`` over *payload*, then EOF."""

    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(payload)
        reader.feed_eof()
        app = ServeApp()
        return [await app._read_request(reader, "peer") for _ in range(count)]

    return asyncio.run(read())


class TestRequestHead:
    HEAD = b"GET /healthz HTTP/1.1\r\nHost: a\r\nX-Client-Id: c\r\nAccept: */*\r\n\r\n"

    def test_one_timeout_per_request(self, monkeypatch):
        import repro.serve.app as app_module

        timers = []
        call_later = asyncio.BaseEventLoop.call_later

        def counting(loop, delay, callback, *args, **kwargs):
            timer = call_later(loop, delay, callback, *args, **kwargs)
            if delay == app_module.IDLE_TIMEOUT_S:
                timers.append(timer)
            return timer

        monkeypatch.setattr(asyncio.BaseEventLoop, "call_later", counting)

        async def read():
            reader = asyncio.StreamReader()
            reader.feed_data(self.HEAD * 3)
            reader.feed_eof()
            app = ServeApp()
            results = []
            for _ in range(4):
                results.append(await app._read_request(reader, "peer"))
                # Each read's timer is cancelled once that read ends.
                assert len(timers) == len(results)
                assert timers[-1].cancelled()
            return results

        results = asyncio.run(read())
        assert [request.path for request, _ in results[:3]] == ["/healthz"] * 3
        assert results[3] == (None, False)
        assert len(timers) == 4

    def test_newline_terminated_head_parses(self):
        head = b"POST /evaluate?x=1 HTTP/1.1\nX-Client-Id: nl\nContent-Length: 2\n\n{}"
        ((request, keep_alive),) = _read_requests(head, 1)
        assert (request.method, request.path, request.query) == (
            "POST", "/evaluate", {"x": "1"}
        )
        assert (request.client, request.body, keep_alive) == ("nl", b"{}", True)

    def test_trickled_head_times_out(self, monkeypatch):
        # One header line every 50 ms never idles a line for the 0.2 s
        # timeout; the head as a whole must still end there.
        import repro.serve.app as app_module

        monkeypatch.setattr(app_module, "IDLE_TIMEOUT_S", 0.2)

        async def trickle(reader):
            reader.feed_data(b"GET /healthz HTTP/1.1\r\n")
            while True:
                await asyncio.sleep(0.05)
                reader.feed_data(b"X-Pad: 1\r\n")

        async def read():
            reader = asyncio.StreamReader()
            feeder = asyncio.ensure_future(trickle(reader))
            try:
                return await asyncio.wait_for(
                    ServeApp()._read_request(reader, "peer"), 10
                )
            finally:
                feeder.cancel()

        assert asyncio.run(read()) == (None, False)

    def test_stalled_body_times_out(self, monkeypatch):
        # A complete head whose body never finishes arriving is bounded by
        # the same timeout as the head.
        import repro.serve.app as app_module

        monkeypatch.setattr(app_module, "IDLE_TIMEOUT_S", 0.2)

        async def read():
            reader = asyncio.StreamReader()
            reader.feed_data(b"POST /evaluate HTTP/1.1\r\nContent-Length: 10\r\n\r\n{")
            return await asyncio.wait_for(
                ServeApp()._read_request(reader, "peer"), 3
            )

        assert asyncio.run(read()) == (None, False)

    def test_stalled_head_closes_the_connection(self, monkeypatch):
        import repro.serve.app as app_module

        monkeypatch.setattr(app_module, "IDLE_TIMEOUT_S", 0.3)
        handle = make_server()
        try:
            with socket.create_connection(("127.0.0.1", handle.port), timeout=30) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
                assert sock.recv(65536) == b""  # closed without a response
        finally:
            handle.stop()

    def test_each_response_is_one_write(self, server):
        class Writer:
            def __init__(self):
                self.writes: List[bytes] = []

            def write(self, data):
                self.writes.append(bytes(data))

            async def drain(self):
                pass

        writer = Writer()
        response = server.app.json_response({"ok": True}, headers={"X-Extra": "1"})
        asyncio.run(server.app._write_response(writer, response, close=False))
        (sent,) = writer.writes
        head, _, body = sent.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0] == b"HTTP/1.1 200 OK"
        assert b"Content-Length: %d" % len(response.body) in lines
        assert b"Connection: keep-alive" in lines and b"X-Extra: 1" in lines
        assert body == response.body


class TestRequestLog:
    @pytest.fixture
    def log_stream(self):
        stream = io.StringIO()
        yield stream
        root = logging.getLogger(ROOT_LOGGER)
        for handler in list(root.handlers):
            if handler.get_name() == "repro-obs":
                root.removeHandler(handler)
        root.setLevel(logging.NOTSET)

    def test_request_line_at_info(self, client, log_stream):
        configure_logging(1, stream=log_stream)
        tid = "0af7651916cd43dd8448eb211c80319c"
        client.get("/version", headers={"X-Trace-Id": tid})
        (line,) = [
            line for line in log_stream.getvalue().splitlines() if " request " in line
        ]
        assert re.fullmatch(
            r" *[0-9.]+ms INFO    repro\.serve\.http request method=GET "
            r"path=/version status=200 ms=[0-9.e+-]+ client=test "
            rf"trace_id={tid}( run_id=\S+)?",
            line,
        ), line

    def test_request_line_is_not_built_at_warning(self, client, log_stream, monkeypatch):
        import repro.serve.app as app_module

        built = []
        monkeypatch.setattr(app_module, "kv", lambda **fields: built.append(fields) or "")
        configure_logging(0, stream=log_stream)
        assert client.get("/version")[0] == 200
        assert built == [] and log_stream.getvalue() == ""


def _shared_listener() -> socket.socket:
    """A proto-0 listening socket, as ``run()`` and the shared-socket fleet bind it."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", 0))
    sock.listen(8)
    return sock


def _reuseport_socket() -> socket.socket:
    """A proto-0 ``SO_REUSEPORT`` socket, bound but not listening, as a
    reuseport fleet worker gets it."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind(("127.0.0.1", 0))
    return sock


class TestTransport:
    @pytest.mark.parametrize(
        "listener",
        [
            pytest.param(None, id="server-handle"),
            pytest.param(_shared_listener, id="shared-listener"),
            pytest.param(
                _reuseport_socket,
                id="reuseport",
                marks=pytest.mark.skipif(
                    not hasattr(socket, "SO_REUSEPORT"), reason="no SO_REUSEPORT"
                ),
            ),
        ],
    )
    def test_every_response_is_written_with_tcp_nodelay(self, monkeypatch, listener):
        """Without TCP_NODELAY a keep-alive response waits on Nagle plus the
        client's delayed ACK.  The option is read off the socket, so the
        test does not depend on how fast the machine is."""
        nodelay = []
        write_response = ServeApp._write_response

        async def recording(self, writer, response, close):
            sock = writer.get_extra_info("socket")
            nodelay.append(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            await write_response(self, writer, response, close)

        monkeypatch.setattr(ServeApp, "_write_response", recording)
        handle = ServerHandle(ServeConfig(port=0))
        if listener is not None:
            handle.app.listen_sock = listener()
        handle.start()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
            try:
                for _ in range(3):
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 200
            finally:
                conn.close()
        finally:
            handle.stop()
        assert len(nodelay) == 3 and all(nodelay), nodelay
