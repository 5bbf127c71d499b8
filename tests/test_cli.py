"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXIT_ERROR, build_parser, main
from repro.errors import ProjectionError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_study_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "quantum"])


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "Bitcoin Mining" not in out  # Table IV uses app names
        assert "Advanced Encryption Standard" in out

    @pytest.mark.parametrize("name", ["video", "gpu", "cnn", "bitcoin"])
    def test_study(self, capsys, name):
        assert main(["study", name]) == 0
        out = capsys.readouterr().out
        assert "csr_x" in out
        assert "summary:" in out

    def test_wall(self, capsys):
        assert main(["wall"]) == 0
        out = capsys.readouterr().out
        assert "video_decoding" in out
        assert "headroom" in out

    def test_maturity(self, capsys):
        assert main(["maturity"]) == 0
        out = capsys.readouterr().out
        assert "bitcoin_asic" in out

    def test_insights(self, capsys):
        assert main(["insights"]) == 0
        out = capsys.readouterr().out
        assert "holds" in out

    def test_plot_fig13(self, capsys):
        assert main(["plot", "fig13"]) == 0
        assert "45nm" in capsys.readouterr().out

    def test_plot_fig13_parallel_cached(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "dse-cache")
        args = ["plot", "fig13", "--jobs", "2", "--cache-dir", cache_dir]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "[dse]" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        # Warm rerun is served entirely from the persistent cache. (The
        # cold run may show a few hits too: workers share the store.)
        assert "[100%]" not in cold
        assert "[100%]" in warm

    def test_plot_fig13_no_cache_wins(self, tmp_path, capsys):
        cache_dir = tmp_path / "dse-cache"
        assert main([
            "plot", "fig13", "--cache-dir", str(cache_dir), "--no-cache",
        ]) == 0
        assert "[dse]" in capsys.readouterr().out
        assert not cache_dir.exists()

    def test_plot_fig15(self, capsys):
        assert main(["plot", "fig15"]) == 0
        assert "frontier" in capsys.readouterr().out

    def test_export_subset_via_module(self, tmp_path, capsys):
        # Full export is exercised by test_export; here just the wiring.
        assert main(["export", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "table5.json" in out
        envelope = json.loads((tmp_path / "table5.json").read_text())
        assert len(envelope["data"]) == 4
        assert envelope["manifest"]["command"] == "export"

    def test_export_records_its_manifest_once(self, tmp_path, capsys, monkeypatch):
        from repro.provenance.manifest import RunLedger

        recorded = []
        record = RunLedger.record

        def counting_record(self, manifest):
            recorded.append(manifest)
            return record(self, manifest)

        monkeypatch.setattr(RunLedger, "record", counting_record)
        args = ["export", "--out", str(tmp_path / "out"), "--only", "table5"]
        assert main(args + ["--profile"]) == 0
        capsys.readouterr()
        assert len(recorded) == 1
        entry = RunLedger().get(recorded[0].run_id)
        assert entry.stages and entry.stages[0]["stage"] == "export"
        assert entry.golden

    def test_export_only_subset(self, tmp_path, capsys):
        out_dir = tmp_path / "subset"
        assert main(
            ["export", "--out", str(out_dir), "--only", "table5,fig3a"]
        ) == 0
        capsys.readouterr()
        written = {p.name for p in out_dir.glob("*.json")}
        assert written == {"table5.json", "fig3a.json"}

    def test_export_tech_selects_backend_family(self, tmp_path, capsys):
        out_dir = tmp_path / "tfet"
        assert main(["export", "--out", str(out_dir), "--tech", "tfet"]) == 0
        capsys.readouterr()
        written = {p.name for p in out_dir.glob("*.json")}
        assert written == {
            "fig15_16_tfet.json", "table5_tfet.json", "csr_tfet.json",
            "tech_tfet.json", "tech_delta_tfet.json",
        }
        block = json.loads((out_dir / "tech_delta_tfet.json").read_text())
        assert block["manifest"]["config_hashes"]["tech_backend"] == "tfet"

    def test_export_only_per_tech_name_without_tech_flag(self, tmp_path, capsys):
        out_dir = tmp_path / "mixed"
        assert main(
            ["export", "--out", str(out_dir), "--only", "tech_delta_chiplet,table5"]
        ) == 0
        capsys.readouterr()
        written = {p.name for p in out_dir.glob("*.json")}
        assert written == {"tech_delta_chiplet.json", "table5.json"}

    def test_export_unknown_tech_reports_error(self, tmp_path, capsys):
        assert main(
            ["export", "--out", str(tmp_path / "x"), "--tech", "graphene"]
        ) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "graphene" in err and "cmos" in err

    def test_export_tech_keeps_the_base_artifacts_cmos(self, tmp_path, capsys):
        # --tech selects the default artifact names only: a base artifact
        # named with --only is the plain export's, whatever the backend.
        only = ["--only", "fig15_16,fig1"]
        assert main(["export", "--out", str(tmp_path / "plain")] + only) == 0
        assert main(
            ["export", "--out", str(tmp_path / "finfet"), "--tech", "finfet"]
            + only
        ) == 0
        capsys.readouterr()
        for name in ("fig15_16", "fig1"):
            plain, finfet = (
                json.loads((tmp_path / run / f"{name}.json").read_text())["data"]
                for run in ("plain", "finfet")
            )
            assert finfet == plain, name

    def test_plot_fig15_tech(self, capsys):
        # Each backend's plotted walls are the ones its Figs 15-16 artifact
        # exports (fig15_16 for cmos); chiplet's are the best of two
        # envelopes.
        from repro.reporting.export import artifact_registry
        from repro.tech import backend_names

        for tech in backend_names():
            assert main(["plot", "fig15", "--tech", tech]) == 0
            out = capsys.readouterr().out
            if tech != "cmos":
                assert f"[{tech}]" in out
            printed = [line for line in out.splitlines() if "headroom" in line]
            artifact = "fig15_16" if tech == "cmos" else f"fig15_16_{tech}"
            rows = artifact_registry()[artifact]()
            expected = []
            for row in rows:
                if row["metric"] != "performance":
                    continue
                low, high = row["headroom"]
                unit = row["unit"]
                expected.append(
                    f"{row['domain']}/performance: best today "
                    f"{row['current_best']:.4g} {unit}; wall at "
                    f"{row['projected_log']:.4g} (log) .. "
                    f"{row['projected_linear']:.4g} (linear) {unit} -> "
                    f"{low:.2g}-{high:.2g}x headroom"
                )
            assert printed == expected, tech


class TestObservability:
    """The --profile/--trace-out flags, -v logging, and `stats`."""

    @pytest.fixture(autouse=True)
    def isolated_obs(self, monkeypatch, tmp_path):
        """Point the metrics snapshot at a temp dir; undo logging config."""
        import logging

        from repro.obs.log import ROOT_LOGGER

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "obs-cache"))
        yield
        root = logging.getLogger(ROOT_LOGGER)
        for handler in list(root.handlers):
            if handler.get_name() == "repro-obs":
                root.removeHandler(handler)
        root.setLevel(logging.NOTSET)

    def test_plot_fig13_profile_and_trace(self, tmp_path, capsys):
        # The issue's acceptance command: profile table + valid Chrome
        # trace with parent and worker spans.
        trace_path = tmp_path / "trace.json"
        assert main([
            "plot", "fig13", "--jobs", "2",
            "--profile", "--trace-out", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "=== profile: per-stage time ===" in out
        assert f"wrote trace {trace_path}" in out
        assert "schedule" in out and "evaluate" in out

        payload = json.loads(trace_path.read_text())
        events = payload["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
        names = {e["name"] for e in events}
        assert {"plot", "sweep", "schedule", "evaluate", "cache.lookup"} <= names
        # Spans came from the parent *and* its worker processes.
        assert len({e["pid"] for e in events}) >= 2

    def test_trace_out_without_profile_skips_table(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(
            ["plot", "fig13", "--trace-out", str(trace_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote trace" in out
        assert "per-stage time" not in out
        assert trace_path.exists()

    def test_tracer_uninstalled_after_command(self, tmp_path):
        from repro.obs.trace import get_tracer

        assert main(
            ["plot", "fig13", "--trace-out", str(tmp_path / "t.json")]
        ) == 0
        assert get_tracer() is None

    def test_stats_before_any_run(self, capsys):
        # Regression: used to dump a traceback / silently succeed.
        assert main(["stats"]) == 1
        captured = capsys.readouterr()
        assert "no metrics snapshot found" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "content",
        [b"{not json", b"\xff\xfe", b"[1, 2]", b'{"metrics": [1]}'],
        ids=["not-json", "not-utf8", "list", "metrics-list"],
    )
    def test_stats_with_corrupt_snapshot(self, capsys, content):
        from repro.cli import _metrics_path

        path = _metrics_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
        assert main(["stats"]) == 1
        captured = capsys.readouterr()
        assert "unreadable" in captured.err
        assert "Traceback" not in captured.err

    def test_stats_renders_last_run_snapshot(self, capsys):
        assert main(["plot", "fig13", "--jobs", "2"]) == 0
        capsys.readouterr()
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "=== metrics snapshot" in out
        assert "command:  plot" in out
        assert "engine.design_points" in out
        assert "engine.elapsed_s" in out

    def test_stats_json_output(self, capsys):
        assert main(["plot", "fig13"]) == 0
        capsys.readouterr()
        assert main(["stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "plot"
        metrics = payload["metrics"]
        assert metrics["engine.operations"]["type"] == "counter"
        assert metrics["engine.operations"]["value"] >= 1

    def test_verbose_flag_enables_structured_logs(self, capsys):
        assert main(["-v", "plot", "fig13"]) == 0
        err = capsys.readouterr().err
        assert "repro.accel.engine" in err
        assert "sweep.done" in err
        assert "kernel=" in err


class TestReportCommand:
    """The `report` command: ledger listing, run reports, drift compares."""

    @pytest.fixture(autouse=True)
    def isolated_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def _export(self, tmp_path, capsys, sub):
        assert main(
            ["export", "--out", str(tmp_path / sub), "--only", "table5,fig3a"]
        ) == 0
        capsys.readouterr()

    def _ids(self, capsys):
        assert main(["report", "--ids"]) == 0
        return capsys.readouterr().out.split()

    def test_empty_ledger_message(self, capsys):
        assert main(["report"]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_listing_and_single_run_report(self, tmp_path, capsys):
        self._export(tmp_path, capsys, "a")
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "=== run ledger" in out
        assert "export" in out
        (run_id,) = self._ids(capsys)
        assert main(["report", run_id]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert "Golden numbers" in out

    def test_compare_identical_runs_zero_drift(self, tmp_path, capsys):
        # The acceptance invariant: two exports of the same config drift-free.
        self._export(tmp_path, capsys, "a")
        self._export(tmp_path, capsys, "b")
        id_a, id_b = self._ids(capsys)
        assert main(["report", "--compare", id_a, id_b]) == 0
        out = capsys.readouterr().out
        assert "zero drift" in out

    def test_compare_perturbed_run_names_quantity(self, tmp_path, capsys):
        from repro.provenance.manifest import RunLedger

        self._export(tmp_path, capsys, "a")
        self._export(tmp_path, capsys, "b")
        id_a, id_b = self._ids(capsys)
        ledger = RunLedger()
        tampered = ledger.get(id_b)
        tampered.golden["table5.0.projected_log"] = 123.456
        ledger.record(tampered)
        assert main(["report", "--compare", id_a, id_b]) == 1
        out = capsys.readouterr().out
        assert "table5.0.projected_log" in out

    def test_report_html_written_to_file(self, tmp_path, capsys):
        self._export(tmp_path, capsys, "a")
        (run_id,) = self._ids(capsys)
        out_file = tmp_path / "report.html"
        assert main(
            ["report", run_id, "--format", "html", "--out", str(out_file)]
        ) == 0
        assert "wrote report" in capsys.readouterr().out
        html = out_file.read_text()
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert run_id in html

    def test_prune_keeps_newest(self, tmp_path, capsys):
        for sub in ("a", "b", "c"):
            self._export(tmp_path, capsys, sub)
        ids = self._ids(capsys)
        assert len(ids) == 3
        assert main(["report", "--prune", "1"]) == 0
        assert "pruned 2 runs" in capsys.readouterr().out
        assert self._ids(capsys) == ids[-1:]

    def test_unknown_run_id_is_oneline_error(self, capsys):
        assert main(["report", "nosuchrun"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestErrorHandling:
    """Regression: ReproError used to escape main() as a raw traceback."""

    def test_reproerror_prints_one_line_and_exits_nonzero(
        self, monkeypatch, capsys
    ):
        from repro import cli

        def boom(args):
            raise ProjectionError("degenerate frontier in test")

        monkeypatch.setattr(cli, "_cmd_wall", boom)
        assert main(["wall"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.strip() == "error: degenerate frontier in test"
        assert "Traceback" not in captured.err

    def test_non_repro_errors_still_propagate(self, monkeypatch):
        from repro import cli

        def boom(args):
            raise RuntimeError("a genuine bug")

        monkeypatch.setattr(cli, "_cmd_wall", boom)
        with pytest.raises(RuntimeError):
            main(["wall"])

    def test_unknown_check_subsystem_reports_error(self, capsys):
        assert main(["check", "nosuch"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nosuch" in err


class TestCheckCommand:
    def test_check_subset_passes(self, capsys):
        assert main(["check", "csr", "wall"]) == 0
        out = capsys.readouterr().out
        assert "csr/eq2-invariant" in out
        assert "wall/predict-clamp" in out
        assert "FAIL" not in out
        assert "cmos/" not in out  # subset filtering works

    def test_check_tech_subsystem(self, capsys):
        assert main(["check", "tech", "--tech", "tfet"]) == 0
        out = capsys.readouterr().out
        assert "tech/surfaces-monotone" in out
        assert "tech/cmos-bit-identical" in out
        assert "tech/wall-shift-finite" in out
        assert "FAIL" not in out

    def test_check_failure_exits_nonzero(self, monkeypatch, capsys):
        from repro import check as check_module

        def failing():
            raise AssertionError("invariant broken in test")

        monkeypatch.setattr(
            check_module, "CHECKS", (("csr", "doomed", failing),)
        )
        assert main(["check"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "invariant broken in test" in out
        assert "0/1 checks passed" in out
