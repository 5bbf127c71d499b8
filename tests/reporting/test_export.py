"""Tests for JSON artifact export and its provenance envelopes."""

import json

import pytest

from repro.provenance.manifest import SCHEMA_VERSION
from repro.reporting.export import (
    artifact_builders,
    artifact_registry,
    export_all,
    tech_artifact_builders,
)


def _load(path):
    return json.loads(path.read_text())


class TestExport:
    def test_builder_registry_covers_all_artifacts(self):
        names = set(artifact_builders())
        assert {
            "table1", "table2", "table3", "table4", "table5",
            "fig1", "fig3a", "fig3b", "fig3c", "fig3d", "fig4", "fig5",
            "fig6_7", "fig8", "fig9", "fig13", "fig14", "fig15_16",
        } == names

    def test_export_single_artifact(self, tmp_path, paper_model):
        path = export_all(tmp_path, paper_model, names=["table5"])["table5"]
        envelope = _load(path)
        assert envelope["schema_version"] == SCHEMA_VERSION
        assert len(envelope["data"]) == 4

    def test_export_unknown_artifact(self, tmp_path):
        with pytest.raises(ValueError):
            export_all(tmp_path, names=["fig99"])

    def test_export_subset(self, tmp_path, paper_model):
        paths = export_all(
            tmp_path, paper_model, names=["fig1", "fig3a", "table4"]
        )
        assert set(paths) == {"fig1", "fig3a", "table4"}
        for path in paths.values():
            assert path.exists()
            json.loads(path.read_text())  # valid JSON

    def test_fig3d_tuple_keys_serialised(self, tmp_path, paper_model):
        path = export_all(tmp_path, paper_model, names=["fig3d"])["fig3d"]
        payload = _load(path)["data"]
        assert isinstance(payload, dict)
        assert all(isinstance(k, str) for k in payload)

    def test_directory_created(self, tmp_path, paper_model):
        nested = tmp_path / "a" / "b"
        path = export_all(nested, paper_model, names=["table1"])["table1"]
        assert path.parent == nested


class TestDseArtifacts:
    """Figs 13-14 export over the paper's one DSE grid, Table III."""

    def test_fig13_has_one_row_per_table3_point(self, tmp_path):
        from repro.accel.sweep import default_design_grid

        rows = _load(export_all(tmp_path, names=["fig13"])["fig13"])["data"]
        assert len(rows) == len(default_design_grid()) == 1820

    def test_fig14_equals_the_table3_attribution(self, tmp_path):
        from repro.accel.attribution import attribute_gains
        from repro.workloads import get_workload

        rows = _load(export_all(tmp_path, names=["fig14"])["fig14"])["data"]
        (red,) = [row for row in rows if row["workload"] == "RED"]
        expected = attribute_gains(get_workload("RED").build(), "throughput")
        assert red["total_gain"] == expected.total_gain
        assert red["csr"] == expected.csr
        assert red["shares"] == expected.shares


class TestTechArtifacts:
    """Per-technology artifact families resolve through the one registry."""

    def test_registry_extends_builders_with_tech_families(self):
        from repro.tech import backend_names

        registry = set(artifact_registry())
        assert set(artifact_builders()) <= registry
        for tech in backend_names():
            if tech == "cmos":
                continue
            assert set(tech_artifact_builders(tech)) <= registry
        # cmos's per-tech numbers ARE the base artifacts: no duplicates.
        assert "fig15_16_cmos" not in registry

    def test_tech_family_has_five_artifacts(self):
        assert set(tech_artifact_builders("tfet")) == {
            "fig15_16_tfet",
            "table5_tfet",
            "csr_tfet",
            "tech_tfet",
            "tech_delta_tfet",
        }

    def test_only_per_tech_name_works_without_tech_flag(self, tmp_path):
        paths = export_all(tmp_path, names=["tech_delta_finfet"])
        payload = _load(paths["tech_delta_finfet"])["data"]
        assert payload["tech"] == "finfet"
        assert payload["rows"]

    def test_unknown_name_error_lists_per_tech_names(self, tmp_path):
        with pytest.raises(ValueError, match="fig15_16_tfet"):
            export_all(tmp_path, names=["fig99"])

    def test_tech_cmos_is_bit_identical_to_default(self, tmp_path, paper_model):
        # Cheap subset: the default selection for tech=None vs tech="cmos"
        # must be the same names backed by the same builders.
        assert sorted(artifact_builders(paper_model, tech="cmos")) == sorted(
            artifact_builders(paper_model)
        )
        plain = export_all(tmp_path / "plain", paper_model, names=["table5"])["table5"]
        via_tech = export_all(
            tmp_path / "tech", paper_model, names=["table5"], tech="cmos"
        )["table5"]
        assert _load(plain)["data"] == _load(via_tech)["data"]

    def test_tech_selects_the_backend_family(self, tmp_path):
        paths = export_all(tmp_path, tech="tfet")
        assert set(paths) == set(tech_artifact_builders("tfet"))

    def test_manifest_records_backend_and_param_hash(self, tmp_path):
        from repro.tech import get_backend

        paths = export_all(tmp_path, names=["tech_delta_tfet"], tech="tfet")
        block = _load(paths["tech_delta_tfet"])["manifest"]
        assert block["config_hashes"]["tech_backend"] == "tfet"
        assert block["config_hashes"]["tech_params"] == (
            get_backend("tfet").param_hash()
        )

    def test_tech_artifacts_carry_golden_numbers(self, tmp_path):
        from repro.provenance.drift import golden_numbers, is_golden_artifact
        from repro.provenance.manifest import capture

        assert is_golden_artifact("fig15_16_tfet")
        assert is_golden_artifact("tech_delta_chiplet")
        manifest = capture("export", tech="tfet")
        paths = export_all(
            tmp_path, names=["fig15_16_tfet"], manifest=manifest
        )
        payload = _load(paths["fig15_16_tfet"])["data"]
        assert manifest.golden
        assert manifest.golden == golden_numbers({"fig15_16_tfet": payload})


class TestProvenanceEnvelope:
    """Every artifact carries the run's manifest block (issue acceptance)."""

    def test_manifest_block_fields(self, tmp_path, paper_model):
        path = export_all(tmp_path, paper_model, names=["table5"])["table5"]
        block = _load(path)["manifest"]
        assert block["schema_version"] == SCHEMA_VERSION
        assert block["command"] == "export"
        assert "sha" in block["git"] and "dirty" in block["git"]
        assert block["input_hashes"]  # content hashes of the datasheets
        assert all(
            isinstance(v, str) and len(v) == 64
            for v in block["input_hashes"].values()
        )
        assert block["config_hashes"]["cmos_model"]
        assert isinstance(block["metrics"], dict)
        assert block["environment"]["python"]

    def test_same_block_in_every_artifact(self, tmp_path, paper_model):
        paths = export_all(tmp_path, paper_model, names=["table5", "fig3a"])
        blocks = [_load(p)["manifest"] for p in paths.values()]
        assert blocks[0] == blocks[1]
        assert blocks[0]["run_id"]

    def test_export_records_ledger_entry(self, tmp_path, paper_model):
        from repro.provenance.manifest import RunLedger

        ledger = RunLedger(tmp_path / "ledger")
        paths = export_all(
            tmp_path / "out", paper_model, names=["table5"], ledger=ledger
        )
        run_id = _load(paths["table5"])["manifest"]["run_id"]
        manifest = ledger.get(run_id)
        assert manifest.golden  # golden numbers captured for drift
        assert any(name.startswith("table5.") for name in manifest.golden)

    def test_golden_numbers_cover_wall_scalars(self, tmp_path, paper_model):
        from repro.provenance.manifest import RunLedger

        ledger = RunLedger(tmp_path / "ledger")
        export_all(
            tmp_path / "out", paper_model, names=["fig15_16"], ledger=ledger
        )
        manifest = ledger.latest()
        assert any("projected_log" in name for name in manifest.golden)
