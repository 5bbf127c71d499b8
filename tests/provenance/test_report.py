"""Tests for markdown/HTML rendering of run and drift reports."""

import pytest

from repro.provenance.drift import compare_runs
from repro.provenance.manifest import SCHEMA_VERSION, RunLedger, RunManifest
from repro.provenance.report import (
    drift_document,
    format_drift_report,
    format_run_report,
    render_html,
    render_markdown,
    run_document,
)


def _manifest(run_id, created_unix=1000.0, elapsed=1.0, **overrides):
    payload = dict(
        run_id=run_id,
        schema_version=SCHEMA_VERSION,
        command="export",
        argv=["export", "--out", "out"],
        created_at="2026-08-05T12:00:00+0000",
        created_unix=created_unix,
        git={"sha": "abc123def456", "dirty": False},
        environment={"python": "3.11.0", "numpy": "1.26.0"},
        config_hashes={"cmos_model": "0" * 64},
        input_hashes={"reference_database": "1" * 64},
        elapsed_s=elapsed,
        golden={"table5.0.x": 1.5},
        engine={"jobs": 2, "stats": {"elapsed_s": elapsed}},
        stages=[{"stage": "sweep", "calls": 1, "self_s": 0.75,
                 "total_s": 1.0, "share": 75.0}],
        checks=[{"subsystem": "csr", "name": "eq2", "ok": True, "detail": "ok"}],
    )
    payload.update(overrides)
    return RunManifest(**payload)


class TestRunReport:
    def test_markdown_sections(self):
        text = format_run_report(_manifest("r1"), fmt="md")
        assert text.startswith("# Run report: r1")
        for heading in (
            "## Run", "## Environment", "## Configuration & input hashes",
            "## Engine", "## Per-stage time", "## Check outcomes",
            "## Golden numbers",
        ):
            assert heading in text
        assert "abc123def456" in text
        assert "| sweep | 1 | 0.7500 | 1.0000 | 75.0% |" in text

    def test_html_is_escaped_page(self):
        manifest = _manifest("r1", environment={"python": "<3.11>"})
        page = format_run_report(manifest, fmt="html")
        assert page.lstrip().startswith("<!DOCTYPE html>")
        assert "&lt;3.11&gt;" in page
        assert "<3.11>" not in page

    def test_history_sparkline_needs_two_runs(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.record(_manifest("r1", created_unix=1000.0, elapsed=1.0))
        one = format_run_report(ledger.get("r1"), ledger, fmt="md")
        assert "Perf history" not in one
        ledger.record(_manifest("r2", created_unix=2000.0, elapsed=2.0))
        two = format_run_report(ledger.get("r2"), ledger, fmt="md")
        assert "Perf history" in two
        assert "elapsed_s over 2 `export` runs" in two

    def test_unknown_format_refused(self):
        with pytest.raises(ValueError, match="format"):
            format_run_report(_manifest("r1"), fmt="pdf")


class TestDriftReportRendering:
    def test_clean_compare_says_zero_drift(self):
        a, b = _manifest("a"), _manifest("b")
        report = compare_runs(a, b)
        text = format_drift_report(report, a, b, fmt="md")
        assert "zero drift" in text
        assert "## Provenance delta" in text

    def test_drifted_quantity_in_table(self):
        a = _manifest("a")
        b = _manifest("b", golden={"table5.0.x": 9.9})
        report = compare_runs(a, b)
        text = format_drift_report(report, a, b, fmt="md")
        assert "DRIFT" in text
        assert "| table5.0.x |" in text
        html = format_drift_report(report, a, b, fmt="html")
        assert "table5.0.x" in html

    def test_documents_share_content_across_formats(self):
        a, b = _manifest("a"), _manifest("b", golden={"table5.0.x": 9.9})
        doc = drift_document(compare_runs(a, b), a, b)
        md = render_markdown(doc)
        page = render_html(doc)
        for token in ("table5.0.x", "Provenance delta", "Golden numbers"):
            assert token in md and token in page


class TestSparkline:
    def test_monotone_ramp(self):
        from repro.reporting.ascii_plots import sparkline

        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == " " and line[-1] == "@"

    def test_flat_series(self):
        from repro.reporting.ascii_plots import sparkline

        assert set(sparkline([2.0, 2.0, 2.0])) <= {" ", "."}

    def test_non_finite_marked(self):
        from repro.reporting.ascii_plots import sparkline

        assert "?" in sparkline([1.0, float("nan"), 2.0])

    def test_width_resampling(self):
        from repro.reporting.ascii_plots import sparkline

        assert len(sparkline(list(range(100)), width=10)) <= 10

    def test_empty(self):
        from repro.reporting.ascii_plots import sparkline

        assert sparkline([]) == ""
