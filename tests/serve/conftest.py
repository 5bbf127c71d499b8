"""Fixtures for the serving-layer tests.

The module-scoped ``server`` fixture starts one in-process server (default
config on an ephemeral port, so no rate limit) shared by the endpoint tests;
lifecycle tests that need special configuration start their own via
:func:`make_server`.
"""

from __future__ import annotations

import http.client
import json
import os
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.serve import ServeConfig, ServerHandle


class ServeClient:
    """Minimal JSON-over-HTTP test client against a ServerHandle."""

    def __init__(self, port: int, client_id: str = "test"):
        self.port = port
        self.client_id = client_id

    def request(
        self,
        method: str,
        target: str,
        body: Optional[Any] = None,
        raw: bool = False,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any, Dict[str, str]]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(
                method, target, body=payload,
                headers={"X-Client-Id": self.client_id, **(headers or {})},
            )
            response = conn.getresponse()
            content = response.read()
            headers = {k.lower(): v for k, v in response.getheaders()}
            data = content.decode() if raw else json.loads(content)
            return response.status, data, headers
        finally:
            conn.close()

    def get(self, target: str, **kwargs):
        return self.request("GET", target, **kwargs)

    def post(self, target: str, body: Any, **kwargs):
        return self.request("POST", target, body=body, **kwargs)

    def delete(self, target: str, **kwargs):
        return self.request("DELETE", target, **kwargs)


def make_server(**overrides) -> ServerHandle:
    """Start a server on an ephemeral port; caller must ``.stop()`` it."""
    config = ServeConfig(port=0, **overrides)
    return ServerHandle(config).start()


@pytest.fixture(scope="module")
def server_runs_dir(tmp_path_factory):
    """A runs dir that outlives the function-scoped autouse isolation."""
    return tmp_path_factory.mktemp("serve-runs")


@pytest.fixture(scope="module")
def server(server_runs_dir):
    """One shared server for the read-mostly endpoint tests."""
    previous = os.environ.get("REPRO_RUNS_DIR")
    os.environ["REPRO_RUNS_DIR"] = str(server_runs_dir)
    handle = make_server()
    try:
        yield handle
    finally:
        handle.stop()
        if previous is None:
            os.environ.pop("REPRO_RUNS_DIR", None)
        else:
            os.environ["REPRO_RUNS_DIR"] = previous


@pytest.fixture(scope="module")
def client(server) -> ServeClient:
    return ServeClient(server.port)
