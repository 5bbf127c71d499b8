"""Snapshot warm-start tests: round-trip fidelity and cold-boot fallback."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.serve.app import ServeApp, ServeConfig
from repro.serve.snapshot import (
    SNAPSHOT_ARTIFACTS,
    SNAPSHOT_WORKLOADS,
    SNAPSHOT_VERSION,
    ServeSnapshot,
    build_snapshot,
    load_snapshot,
    save_snapshot,
)


@pytest.fixture(scope="module")
def snapshot():
    return build_snapshot()


class TestBuild:
    def test_carries_model_studies_kernels_artifacts(self, snapshot):
        assert snapshot.version == SNAPSHOT_VERSION
        assert snapshot.model is not None
        assert set(snapshot.kernels) == set(SNAPSHOT_WORKLOADS)
        assert set(snapshot.artifacts) == set(SNAPSHOT_ARTIFACTS)
        assert set(snapshot.studies) == {"video", "gpu", "cnn", "bitcoin"}

    def test_carries_every_registered_tech_model(self, snapshot):
        from repro.tech import backend_names

        assert set(snapshot.tech_models) == set(backend_names())
        for model in snapshot.tech_models.values():
            assert model is not None


class TestRoundTrip:
    def test_save_load_preserves_artifacts_bit_for_bit(self, snapshot, tmp_path):
        path = save_snapshot(snapshot, tmp_path / "snap.pkl")
        loaded = load_snapshot(path)
        assert loaded is not None
        for name in SNAPSHOT_ARTIFACTS:
            assert json.dumps(loaded.artifacts[name], sort_keys=True) == (
                json.dumps(snapshot.artifacts[name], sort_keys=True)
            )

    def test_unpicklable_sections_are_dropped_not_fatal(self, snapshot, tmp_path):
        poisoned = ServeSnapshot(
            model=snapshot.model,
            studies=dict(snapshot.studies),
            kernels=dict(snapshot.kernels),
            artifacts={**snapshot.artifacts, "bad": lambda: None},
        )
        path = save_snapshot(poisoned, tmp_path / "snap.pkl")
        loaded = load_snapshot(path)
        assert loaded is not None
        assert "bad" not in loaded.artifacts
        assert set(loaded.kernels) == set(SNAPSHOT_WORKLOADS)


class TestColdBootFallback:
    def test_missing_file_is_none(self, tmp_path):
        assert load_snapshot(tmp_path / "absent.pkl") is None

    def test_corrupt_file_is_none(self, tmp_path):
        path = tmp_path / "corrupt.pkl"
        path.write_bytes(b"not a pickle")
        assert load_snapshot(path) is None

    def test_version_mismatch_is_none(self, snapshot, tmp_path):
        stale = ServeSnapshot(model=snapshot.model, version=SNAPSHOT_VERSION + 1)
        path = tmp_path / "stale.pkl"
        path.write_bytes(pickle.dumps(stale))
        assert load_snapshot(path) is None

    def test_wrong_type_is_none(self, tmp_path):
        path = tmp_path / "wrong.pkl"
        path.write_bytes(pickle.dumps({"not": "a snapshot"}))
        assert load_snapshot(path) is None


class TestWarmBoot:
    def test_app_adopts_snapshot_state(self, snapshot):
        app = ServeApp(ServeConfig(port=0), snapshot=snapshot)
        app.startup()
        try:
            assert app.model is snapshot.model
            for abbrev in SNAPSHOT_WORKLOADS:
                assert app._kernels[abbrev] is snapshot.kernels[abbrev]
            for name in SNAPSHOT_ARTIFACTS:
                hit, payload = app._artifact_cache.get(name)
                assert hit
                assert json.dumps(payload, sort_keys=True) == (
                    json.dumps(snapshot.artifacts[name], sort_keys=True)
                )
        finally:
            app.executor.shutdown(wait=False)

    def test_tech_backends_are_primed_from_snapshot(self, snapshot):
        from repro.tech import backend_names, get_backend

        app = ServeApp(ServeConfig(port=0), snapshot=snapshot)
        app.startup()
        try:
            for name in backend_names():
                assert get_backend(name).model() is snapshot.tech_models[name]
        finally:
            app.executor.shutdown(wait=False)

    def test_unreadable_snapshot_path_boots_cold(self, tmp_path):
        config = ServeConfig(port=0, fleet_dir=str(tmp_path))  # no snapshot.pkl
        app = ServeApp(config)
        app.startup()
        try:
            assert app.model is not None  # refitted, not warm-booted
            assert app._kernels == {}
        finally:
            app.executor.shutdown(wait=False)
