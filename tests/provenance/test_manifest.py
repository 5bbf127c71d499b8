"""Tests for run manifests and the append-only run ledger."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ValidationError
from repro.provenance.manifest import (
    SCHEMA_VERSION,
    RunLedger,
    RunManifest,
    capture,
    git_state,
    input_fingerprints,
    model_fingerprint,
)


def _mini_manifest(run_id="r1", created_unix=1000.0, **overrides):
    payload = dict(
        run_id=run_id,
        schema_version=SCHEMA_VERSION,
        command="export",
        argv=["export", "--out", "out"],
        created_at="2026-08-05T12:00:00+0000",
        created_unix=created_unix,
        git={"sha": "abc123", "dirty": False},
        environment={"python": "3.11.0"},
        config_hashes={"cmos_model": "0" * 64},
        input_hashes={"reference_database": "1" * 64},
    )
    payload.update(overrides)
    return RunManifest(**payload)


def _manifest_bytes(**overrides) -> bytes:
    payload = _mini_manifest("bad").to_dict()
    payload.update(overrides)
    return json.dumps(payload).encode()


#: (manifest.json bytes, expected error) for entries the ledger must refuse.
CORRUPT_ENTRIES = [
    pytest.param(b"{broken", "unreadable", id="not-json"),
    pytest.param(b"\xff\xfe" + _manifest_bytes(), "unreadable", id="not-utf8"),
    pytest.param(
        _manifest_bytes(created_unix="yesterday"), "created_unix", id="str-number"
    ),
    pytest.param(_manifest_bytes(golden=[1, 2]), "golden", id="list-for-dict"),
]


class TestCapture:
    def test_capture_fills_identity(self):
        manifest = capture("export", argv=["export", "--out", "x"])
        assert manifest.schema_version == SCHEMA_VERSION
        assert manifest.command == "export"
        assert manifest.argv == ["export", "--out", "x"]
        assert manifest.run_id
        assert "python" in manifest.environment
        assert "numpy" in manifest.environment
        assert manifest.config_hashes["cmos_model"]
        assert "reference_database" in manifest.input_hashes
        assert any(k.startswith("study:") for k in manifest.input_hashes)

    def test_run_ids_are_unique(self):
        a = capture("export")
        b = capture("export")
        assert a.run_id != b.run_id

    def test_git_state_in_checkout(self):
        root = Path(__file__).resolve().parents[2]
        state = git_state(root)
        if (root / ".git").exists() and shutil.which("git"):
            assert re.fullmatch(r"[0-9a-f]{40}", state["sha"]), state
            assert isinstance(state["dirty"], bool), state
        else:  # an unpacked sdist, or no git binary
            assert state["sha"] is None or len(state["sha"]) == 40

    def test_git_state_outside_checkout(self, tmp_path):
        state = git_state(tmp_path)
        assert state == {"sha": None, "dirty": None}

    def test_model_fingerprint_stable_and_sensitive(self, paper_model):
        from repro.cmos.model import CmosPotentialModel

        assert model_fingerprint(paper_model) == model_fingerprint(paper_model)
        refit = CmosPotentialModel.reference()
        assert model_fingerprint(paper_model) != model_fingerprint(refit)

    def test_input_fingerprints_stable(self):
        assert input_fingerprints() == input_fingerprints()

    def test_capture_never_generates_the_population(self):
        # A fresh process, so no earlier test has built the population
        # for it: capture must hash the population's inputs, not its chips.
        code = """
import repro.datasheets.reference as reference
import repro.datasheets.synthetic as synthetic

def generated(*args, **kwargs):
    raise AssertionError("the datasheet population was generated")

reference.synthetic_database = generated
synthetic.synthetic_database = generated

from repro.provenance.manifest import capture, input_fingerprints

hashes = input_fingerprints()
assert capture("export", argv=[]).input_hashes == hashes
assert len(hashes["reference_database"]) == 64
"""
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr


class TestRoundTrip:
    def test_to_dict_from_dict_identity(self):
        manifest = _mini_manifest(
            golden={"table5.0.x": 1.5}, checks=[{"ok": True}]
        )
        clone = RunManifest.from_dict(
            json.loads(json.dumps(manifest.to_dict()))
        )
        assert clone == manifest

    def test_wrong_schema_version_refused(self):
        payload = _mini_manifest().to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValidationError):
            RunManifest.from_dict(payload)

    def test_missing_schema_version_refused(self):
        payload = _mini_manifest().to_dict()
        del payload["schema_version"]
        with pytest.raises(ValidationError):
            RunManifest.from_dict(payload)

    def test_missing_required_field_refused(self):
        payload = _mini_manifest().to_dict()
        del payload["input_hashes"]
        with pytest.raises(ValidationError):
            RunManifest.from_dict(payload)

    def test_unknown_fields_ignored(self):
        payload = _mini_manifest().to_dict()
        payload["future_field"] = {"x": 1}
        manifest = RunManifest.from_dict(payload)
        assert not hasattr(manifest, "future_field")

    def test_non_dict_payload_refused(self):
        with pytest.raises(ValidationError):
            RunManifest.from_dict(["not", "a", "dict"])

    def test_artifact_block_subset(self):
        manifest = _mini_manifest(golden={"x": 1.0}, stages=[{"stage": "s"}])
        block = manifest.artifact_block()
        assert block["run_id"] == manifest.run_id
        assert block["git"]["sha"] == "abc123"
        assert "golden" not in block  # ledger-only payload stays out
        assert "stages" not in block


class TestLedger:
    def test_record_and_get(self, tmp_path):
        ledger = RunLedger(tmp_path)
        manifest = _mini_manifest()
        path = ledger.record(manifest)
        assert path == tmp_path / "r1" / "manifest.json"
        assert ledger.get("r1") == manifest
        assert "r1" in ledger

    def test_list_oldest_first(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.record(_mini_manifest("new", created_unix=2000.0))
        ledger.record(_mini_manifest("old", created_unix=1000.0))
        assert ledger.ids() == ["old", "new"]
        assert ledger.latest().run_id == "new"

    def test_rerecord_same_run_updates_in_place(self, tmp_path):
        ledger = RunLedger(tmp_path)
        manifest = _mini_manifest()
        ledger.record(manifest)
        manifest.golden["table5.0.x"] = 2.0
        ledger.record(manifest)
        assert len(ledger) == 1
        assert ledger.get("r1").golden == {"table5.0.x": 2.0}

    def test_get_unknown_run(self, tmp_path):
        with pytest.raises(ValidationError, match="no run"):
            RunLedger(tmp_path).get("missing")

    @pytest.mark.parametrize("content,match", CORRUPT_ENTRIES)
    def test_get_corrupt_entry(self, tmp_path, content, match):
        (tmp_path / "bad").mkdir(parents=True)
        (tmp_path / "bad" / "manifest.json").write_bytes(content)
        with pytest.raises(ValidationError, match=match):
            RunLedger(tmp_path).get("bad")

    @pytest.mark.parametrize("content,match", CORRUPT_ENTRIES)
    def test_list_skips_corrupt_entries(self, tmp_path, content, match):
        ledger = RunLedger(tmp_path)
        ledger.record(_mini_manifest("good"))
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad" / "manifest.json").write_bytes(content)
        assert ledger.ids() == ["good"]
        assert ledger.latest().run_id == "good"

    def test_invalid_run_ids_rejected(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for bad in ("", ".", "..", "a/b"):
            with pytest.raises(ValidationError):
                ledger.get(bad)

    def test_prune_keeps_newest(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for index in range(4):
            ledger.record(
                _mini_manifest(f"r{index}", created_unix=1000.0 + index)
            )
        removed = ledger.prune(2)
        assert removed == ["r0", "r1"]
        assert ledger.ids() == ["r2", "r3"]

    def test_prune_negative_refused(self, tmp_path):
        with pytest.raises(ValidationError):
            RunLedger(tmp_path).prune(-1)

    def test_empty_ledger(self, tmp_path):
        ledger = RunLedger(tmp_path / "nowhere")
        assert ledger.list() == []
        assert len(ledger) == 0
        with pytest.raises(ValidationError, match="empty"):
            ledger.latest()

    def test_env_var_controls_default_root(self, monkeypatch, tmp_path):
        from repro.provenance.manifest import default_runs_dir

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "elsewhere"))
        assert default_runs_dir() == tmp_path / "elsewhere"
        assert RunLedger().root == tmp_path / "elsewhere"
