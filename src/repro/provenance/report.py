"""Render run manifests and drift reports as markdown or HTML.

The ``repro report`` CLI command renders either a single run's provenance
summary (identity, environment, hashes, engine stats, per-stage times,
check outcomes, and a perf-history sparkline over the ledger) or a
two-run :class:`~repro.provenance.drift.DriftReport`.

Both formats are built from one intermediate :class:`Document` — a title
plus :class:`Section`\\ s of prose lines, tables, and preformatted blocks
— so markdown and HTML always carry the same content.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.provenance.drift import DriftReport
from repro.provenance.manifest import RunLedger, RunManifest
from repro.reporting.ascii_plots import sparkline

__all__ = [
    "Document",
    "Section",
    "drift_document",
    "render_html",
    "render_markdown",
    "run_document",
]

Table = Tuple[Sequence[str], Sequence[Sequence[str]]]  # (headers, rows)


@dataclass
class Section:
    """One report section: prose lines, then tables, then pre blocks."""

    title: str
    lines: List[str] = field(default_factory=list)
    tables: List[Table] = field(default_factory=list)
    pre: List[str] = field(default_factory=list)


@dataclass
class Document:
    title: str
    sections: List[Section] = field(default_factory=list)


# -- document construction ----------------------------------------------------


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _identity_section(manifest: RunManifest) -> Section:
    git = manifest.git or {}
    sha = git.get("sha") or "unknown"
    dirty = git.get("dirty")
    dirty_note = " (dirty)" if dirty else ("" if dirty is not None else " (?)")
    section = Section("Run")
    section.lines = [
        f"run id: `{manifest.run_id}`",
        f"command: `{manifest.command}` "
        f"(argv: `{' '.join(manifest.argv) or '-'}`)",
        f"recorded: {manifest.created_at}",
        f"git: `{sha}`{dirty_note}",
        f"elapsed: {manifest.elapsed_s:.3f}s",
    ]
    return section


def _environment_section(manifest: RunManifest) -> Section:
    section = Section("Environment")
    env = manifest.environment or {}
    rows = [[key, str(env[key])] for key in sorted(env)]
    section.tables.append((("field", "value"), rows))
    return section


def _hashes_section(manifest: RunManifest) -> Section:
    section = Section("Configuration & input hashes")
    rows = []
    for name in sorted(manifest.config_hashes):
        rows.append(["config:" + name, manifest.config_hashes[name][:16]])
    for name in sorted(manifest.input_hashes):
        rows.append([name, manifest.input_hashes[name][:16]])
    section.tables.append((("input", "sha256 (prefix)"), rows))
    return section


def _engine_section(manifest: RunManifest) -> Optional[Section]:
    if not manifest.engine:
        return None
    section = Section("Engine")
    stats = manifest.engine.get("stats")
    config = {k: v for k, v in manifest.engine.items() if k != "stats"}
    if config:
        section.lines.append(
            ", ".join(f"{key}={_fmt(config[key])}" for key in sorted(config))
        )
    if isinstance(stats, dict) and stats:
        rows = [[key, _fmt(stats[key])] for key in sorted(stats)]
        section.tables.append((("stat", "value"), rows))
    return section


_STAGE_FORMATS = {"self_s": "{:.4f}", "total_s": "{:.4f}", "share": "{:.1f}%"}


def _stage_cell(column: str, value: object) -> str:
    spec = _STAGE_FORMATS.get(column)
    if spec is not None and isinstance(value, (int, float)):
        return spec.format(value)
    return str(value)


def _stages_section(manifest: RunManifest) -> Optional[Section]:
    if not manifest.stages:
        return None
    section = Section("Per-stage time")
    section.lines.append(
        "self_s: time not covered by a child span on the same track; "
        "share: self_s over the run's wall time."
    )
    headers = ("stage", "calls", "self_s", "total_s", "share")
    rows = [
        [_stage_cell(column, row.get(column, "")) for column in headers]
        for row in manifest.stages
    ]
    section.tables.append((headers, rows))
    return section


def _checks_section(manifest: RunManifest) -> Optional[Section]:
    if not manifest.checks:
        return None
    section = Section("Check outcomes")
    failed = sum(1 for check in manifest.checks if not check.get("ok"))
    section.lines.append(
        f"{len(manifest.checks) - failed}/{len(manifest.checks)} checks passed"
        + (f", {failed} FAILED" if failed else "")
    )
    rows = [
        [
            str(check.get("subsystem", "?")),
            str(check.get("name", "?")),
            "ok" if check.get("ok") else "FAIL",
            str(check.get("detail", "")),
        ]
        for check in manifest.checks
    ]
    section.tables.append((("subsystem", "check", "status", "detail"), rows))
    return section


def _metrics_section(manifest: RunManifest) -> Optional[Section]:
    if not manifest.metrics:
        return None
    from repro.obs.metrics import MetricsRegistry

    section = Section("Metrics snapshot")
    section.pre.append(MetricsRegistry().render(manifest.metrics))
    return section


def _history_section(
    manifest: RunManifest, ledger: Optional[RunLedger]
) -> Optional[Section]:
    """Perf history across the ledger's runs of the same command."""
    if ledger is None:
        return None
    history = [
        m for m in ledger.list() if m.command == manifest.command and m.elapsed_s
    ]
    if len(history) < 2:
        return None
    values = [m.elapsed_s for m in history]
    section = Section("Perf history")
    section.lines.append(
        f"elapsed_s over {len(values)} `{manifest.command}` runs "
        f"(oldest to newest; min {min(values):.3f}s, max {max(values):.3f}s):"
    )
    section.pre.append(sparkline(values, width=60))
    return section


def run_document(
    manifest: RunManifest, ledger: Optional[RunLedger] = None
) -> Document:
    """Single-run provenance summary as a :class:`Document`."""
    doc = Document(f"Run report: {manifest.run_id}")
    for section in (
        _identity_section(manifest),
        _environment_section(manifest),
        _hashes_section(manifest),
        _engine_section(manifest),
        _stages_section(manifest),
        _checks_section(manifest),
        _metrics_section(manifest),
        _history_section(manifest, ledger),
    ):
        if section is not None:
            doc.sections.append(section)
    if manifest.golden:
        section = Section("Golden numbers")
        section.lines.append(
            f"{len(manifest.golden)} golden scalars captured "
            "(compare two runs with `repro report --compare A B`)"
        )
        doc.sections.append(section)
    return doc


def _provenance_delta(a: RunManifest, b: RunManifest) -> Section:
    section = Section("Provenance delta")
    rows = []
    sha_a = (a.git or {}).get("sha") or "?"
    sha_b = (b.git or {}).get("sha") or "?"
    rows.append(["git sha", str(sha_a)[:12], str(sha_b)[:12]])
    keys = sorted(set(a.config_hashes) | set(b.config_hashes))
    for key in keys:
        rows.append(
            [
                "config:" + key,
                a.config_hashes.get(key, "-")[:12],
                b.config_hashes.get(key, "-")[:12],
            ]
        )
    keys = sorted(set(a.input_hashes) | set(b.input_hashes))
    for key in keys:
        rows.append(
            [key, a.input_hashes.get(key, "-")[:12], b.input_hashes.get(key, "-")[:12]]
        )
    section.tables.append((("field", "run a", "run b"), rows))
    return section


def drift_document(
    report: DriftReport,
    manifest_a: RunManifest,
    manifest_b: RunManifest,
    ledger: Optional[RunLedger] = None,
) -> Document:
    """Two-run drift report as a :class:`Document`."""
    doc = Document(f"Drift report: {report.run_a} vs {report.run_b}")
    head = Section("Summary")
    head.lines = [
        report.describe(),
        f"baseline `{report.run_a}` recorded {manifest_a.created_at}; "
        f"candidate `{report.run_b}` recorded {manifest_b.created_at}",
    ]
    doc.sections.append(head)
    doc.sections.append(_provenance_delta(manifest_a, manifest_b))

    golden = Section("Golden numbers")
    golden.lines.append(
        f"{report.compared} quantities compared; "
        f"{len(report.drifted)} drifted, {len(report.added)} added, "
        f"{len(report.removed)} removed"
    )
    if report.drifted:
        rows = [
            [
                drift.name,
                _fmt(drift.value_a),
                _fmt(drift.value_b),
                f"{drift.rel_delta:+.3g}",
                f"rel={drift.tolerance.rel:g} abs={drift.tolerance.abs:g}",
            ]
            for drift in report.drifted
        ]
        golden.tables.append(
            (("quantity", "run a", "run b", "rel delta", "tolerance"), rows)
        )
    if report.added:
        golden.lines.append("added: " + ", ".join(report.added[:20]))
    if report.removed:
        golden.lines.append("removed: " + ", ".join(report.removed[:20]))
    doc.sections.append(golden)

    if report.perf:
        perf = Section("Perf")
        rows = [
            [
                flag.metric,
                _fmt(flag.value_a),
                _fmt(flag.value_b),
                "REGRESSED" if flag.regressed else "ok",
                flag.detail,
            ]
            for flag in report.perf
        ]
        perf.tables.append(
            (("metric", "run a", "run b", "status", "detail"), rows)
        )
        doc.sections.append(perf)
    history = _history_section(manifest_b, ledger)
    if history is not None:
        doc.sections.append(history)
    return doc


# -- renderers ----------------------------------------------------------------


def _markdown_table(table: Table) -> List[str]:
    headers, rows = table
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return lines


def render_markdown(doc: Document) -> str:
    """The document as GitHub-flavoured markdown."""
    out: List[str] = [f"# {doc.title}", ""]
    for section in doc.sections:
        out.append(f"## {section.title}")
        out.append("")
        for line in section.lines:
            out.append(line)
        if section.lines:
            out.append("")
        for table in section.tables:
            out.extend(_markdown_table(table))
            out.append("")
        for block in section.pre:
            out.append("```")
            out.append(block)
            out.append("```")
            out.append("")
    return "\n".join(out).rstrip() + "\n"


_HTML_STYLE = """
body { font-family: sans-serif; margin: 2rem auto; max-width: 60rem; }
table { border-collapse: collapse; margin: 0.5rem 0; }
th, td { border: 1px solid #999; padding: 0.25rem 0.6rem; text-align: left; }
th { background: #eee; }
pre { background: #f6f6f6; padding: 0.5rem; overflow-x: auto; }
code { background: #f0f0f0; padding: 0 0.2rem; }
""".strip()


def _html_inline(text: str) -> str:
    """Escape, then restore `code` spans markdown-style."""
    escaped = html.escape(text)
    parts = escaped.split("`")
    for index in range(1, len(parts), 2):
        parts[index] = f"<code>{parts[index]}</code>"
    return "".join(parts)


def render_html(doc: Document) -> str:
    """The document as a small self-contained HTML page."""
    out: List[str] = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{html.escape(doc.title)}</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
        f"<h1>{_html_inline(doc.title)}</h1>",
    ]
    for section in doc.sections:
        out.append(f"<h2>{_html_inline(section.title)}</h2>")
        for line in section.lines:
            out.append(f"<p>{_html_inline(line)}</p>")
        for headers, rows in section.tables:
            out.append("<table><thead><tr>")
            out.extend(f"<th>{html.escape(str(h))}</th>" for h in headers)
            out.append("</tr></thead><tbody>")
            for row in rows:
                out.append(
                    "<tr>"
                    + "".join(f"<td>{html.escape(str(c))}</td>" for c in row)
                    + "</tr>"
                )
            out.append("</tbody></table>")
        for block in section.pre:
            out.append(f"<pre>{html.escape(block)}</pre>")
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def format_run_report(
    manifest: RunManifest,
    ledger: Optional[RunLedger] = None,
    fmt: str = "md",
) -> str:
    """Render a single-run report in *fmt* (``md`` or ``html``)."""
    doc = run_document(manifest, ledger)
    return _render(doc, fmt)


def format_drift_report(
    report: DriftReport,
    manifest_a: RunManifest,
    manifest_b: RunManifest,
    ledger: Optional[RunLedger] = None,
    fmt: str = "md",
) -> str:
    """Render a two-run drift report in *fmt* (``md`` or ``html``)."""
    doc = drift_document(report, manifest_a, manifest_b, ledger)
    return _render(doc, fmt)


def _render(doc: Document, fmt: str) -> str:
    if fmt == "md":
        return render_markdown(doc)
    if fmt == "html":
        return render_html(doc)
    raise ValueError(f"unknown report format {fmt!r}; known: md, html")


def _summaries(manifests: Sequence[RunManifest]) -> List[Dict[str, object]]:
    """Table rows for the CLI ledger listing (oldest first)."""
    return [
        {
            "run_id": m.run_id,
            "command": m.command,
            "recorded": m.created_at,
            "elapsed_s": f"{m.elapsed_s:.3f}",
            "golden": len(m.golden),
            "checks": len(m.checks),
        }
        for m in manifests
    ]
