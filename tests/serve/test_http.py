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
import json
import socket
from typing import List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.provenance.drift import compare_golden, flatten_scalars
from repro.provenance.manifest import SCHEMA_VERSION, RunLedger
from repro.serve import ServeApp, ServeConfig, ServerHandle

#: Artifacts cheap enough to export inside a test; fig13 is the one that
#: runs the sweep engine.
PARITY_ARTIFACTS = ("fig1", "fig3d", "fig13", "fig15_16", "table5")


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
