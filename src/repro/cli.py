"""Command-line interface: regenerate the paper's evaluation from a shell.

Usage (installed as ``accelerator-wall``, or ``python -m repro``):

    accelerator-wall tables                 # print Tables I, III, IV, V
    accelerator-wall study bitcoin          # one case-study CSR series
    accelerator-wall wall                   # Figs 15-16 projections
    accelerator-wall maturity               # Section IV-E maturity classes
    accelerator-wall check                  # numerical self-diagnostics
    accelerator-wall export --out out/      # JSON of every artifact
    accelerator-wall stats                  # metrics snapshot of the last run
    accelerator-wall serve --port 8080      # HTTP JSON API over the model
    accelerator-wall report                 # list the run ledger
    accelerator-wall report --compare A B   # golden-number drift report

Observability: ``-v``/``-vv`` enable structured ``key=value`` logging on
the ``repro.*`` loggers; the DSE-backed commands (``plot``, ``export``)
additionally accept ``--profile`` (per-stage self time and share of
wall time after the run) and ``--trace-out FILE`` (Chrome trace-event
JSON for Perfetto / ``chrome://tracing``).

Provenance: ``export``, ``plot``, and ``check`` record a run manifest
(git SHA, config/input hashes, metrics, timings) into the run ledger
(``$REPRO_RUNS_DIR`` or ``<cache-dir>/runs``) and print its ``[run] id``;
``report`` renders a single run or compares two (exit 1 on drift).

Exit codes: 0 on success; 1 when a command completes but reports failures
(``insights``, ``check``); :data:`EXIT_ERROR` (2) when a
:class:`repro.errors.ReproError` aborts the command — printed as a
one-line ``error:`` message on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.cmos.model import CmosPotentialModel
from repro.errors import ReproError, ValidationError
from repro.obs.trace import Tracer, set_tracer, span
from repro.reporting.tables import (
    render_rows,
    table1_specialization_concepts,
    table3_sweep_parameters,
    table4_applications,
    table5_wall_parameters,
)
from repro.studies import STUDIES, named_study

#: Exit code when a :class:`repro.errors.ReproError` aborts a command (the
#: codes 0/1 mean success / command-reported failures).
EXIT_ERROR = 2


def _model(args) -> CmosPotentialModel:
    """The CMOS model: refit from the bundled population with ``--refit``,
    else the paper's.  ``--tech`` never changes it (see :func:`_plot_body`)."""
    if getattr(args, "refit", False):
        return CmosPotentialModel.reference()
    return CmosPotentialModel.paper()


def _dse_engine(args):
    """Build the sweep engine the DSE-backed commands share.

    Persistent caching is opt-in: it activates when ``--cache-dir`` is
    passed or ``$REPRO_CACHE_DIR`` is set, and ``--no-cache`` always wins.
    ``--jobs 0`` means all cores.
    """
    from repro.accel.cache import ENV_CACHE_DIR
    from repro.accel.engine import SweepEngine

    use_cache: Optional[bool] = None  # on only when --cache-dir is given
    if getattr(args, "no_cache", False):
        use_cache = False
    elif ENV_CACHE_DIR in os.environ:
        use_cache = True
    return SweepEngine(
        jobs=getattr(args, "jobs", 1),
        cache_dir=getattr(args, "cache_dir", None),
        use_cache=use_cache,
    )


def _add_tech_option(parser: argparse.ArgumentParser) -> None:
    """``--tech``: evaluate under a registered technology backend."""
    parser.add_argument(
        "--tech",
        default=None,
        metavar="TECH",
        help="technology backend to evaluate under (cmos, finfet, tfet, "
        "chiplet; default: cmos — bit-identical to omitting the flag)",
    )


def _add_dse_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep-backed figures (0 = all cores)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent DSE cache directory (default: $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent DSE cache even if a directory is set",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print a per-stage time table after the command",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a Chrome trace-event JSON of the run "
        "(open in Perfetto or chrome://tracing)",
    )


# -- observability plumbing ---------------------------------------------------


def _metrics_path():
    """Where DSE commands persist their metrics snapshot for ``stats``.

    Always the *default* cache directory ($REPRO_CACHE_DIR or
    ``~/.cache/accelerator-wall``): the snapshot is a diagnostics
    artifact, so it is written even when ``--no-cache`` disables the
    schedule cache, and ``--cache-dir`` does not move it.
    """
    from repro.accel.cache import default_cache_dir

    return default_cache_dir() / "metrics.json"


@contextmanager
def _observed(args, command: str) -> Iterator[Dict[str, Any]]:
    """Run *command* under a tracer (if asked for), its root span and a manifest.

    Yields a dict for the ``manifest`` and the ``engine`` the command sets.
    """
    tracer = None
    if getattr(args, "profile", False) or getattr(args, "trace_out", None):
        tracer = Tracer()
        set_tracer(tracer)
    run: Dict[str, Any] = {"manifest": None, "engine": None}
    try:
        with span(command):
            run["manifest"] = _capture_manifest(args, command)
            yield run
    finally:
        _obs_finish(args, tracer, manifest=run["manifest"], engine=run["engine"])


def _obs_finish(args, tracer, manifest=None, engine=None) -> None:
    """Render/export the trace, uninstall it, persist snapshot + manifest."""
    from repro.obs.metrics import metrics
    from repro.provenance.manifest import SCHEMA_VERSION, write_json_atomic

    if tracer is not None:
        set_tracer(None)
        if getattr(args, "trace_out", None):
            path = tracer.export_chrome(args.trace_out)
            print(f"wrote trace {path} ({len(tracer)} spans)")
        if getattr(args, "profile", False):
            print("\n=== profile: per-stage time ===")
            rows = tracer.stage_rows()
            print(render_rows(rows) if rows else "(no spans recorded)")
    snapshot = metrics().snapshot()
    if manifest is not None:
        _record_manifest(manifest, snapshot, tracer, engine)
    if not snapshot:
        return
    payload = {
        "schema_version": SCHEMA_VERSION,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "recorded_unix": time.time(),
        "command": getattr(args, "command", "?"),
        "run_id": manifest.run_id if manifest is not None else None,
        "metrics": snapshot,
    }
    try:
        write_json_atomic(_metrics_path(), payload, indent=2)
    except OSError:
        pass  # diagnostics are best-effort; never fail the command


# -- provenance plumbing ------------------------------------------------------


def _capture_manifest(args, command: str):
    """Start a run manifest for *command*; ``None`` if capture fails."""
    from repro.provenance.manifest import capture

    try:
        return capture(
            command,
            argv=getattr(args, "_argv", None),
            model=_model(args),
            tech=getattr(args, "tech", None),
        )
    except Exception:  # noqa: BLE001 - provenance must never break the run
        return None


def _record_manifest(manifest, snapshot, tracer=None, engine=None) -> None:
    """Complete *manifest* with run outcomes and write the ledger entry."""
    from repro.provenance.manifest import RunLedger

    manifest.metrics = snapshot
    if tracer is not None:
        manifest.stages = tracer.stage_rows()
    if engine is not None:
        manifest.engine = engine.provenance()
    manifest.elapsed_s = time.time() - manifest.created_unix
    try:
        RunLedger().record(manifest)
    except OSError:
        return  # best-effort: an unwritable ledger never fails the command
    print(f"[run] {manifest.run_id}")


def _cmd_stats(args) -> int:
    """Render the metrics snapshot persisted by the last DSE-backed run."""
    from repro.obs.metrics import MetricsRegistry
    from repro.provenance.manifest import read_json_object

    path = _metrics_path()
    if not path.exists():
        print(
            "no metrics snapshot found; run a DSE-backed command first "
            "(e.g. `accelerator-wall plot fig13`)",
            file=sys.stderr,
        )
        return 1
    try:
        payload = read_json_object(path)
        if not isinstance(payload.get("metrics", {}), dict):
            raise ValidationError(f"{path} is unreadable: 'metrics' is not an object")
    except ValidationError as exc:
        print(
            f"metrics snapshot {exc}; re-run a DSE-backed command to refresh it",
            file=sys.stderr,
        )
        return 1
    fmt = getattr(args, "format", None) or (
        "json" if getattr(args, "json", False) else "table"
    )
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return 0
    print(f"=== metrics snapshot ({path}) ===")
    print(f"recorded: {payload.get('recorded_at', '?')}")
    print(f"command:  {payload.get('command', '?')}")
    if payload.get("run_id"):
        print(f"run:      {payload['run_id']}")
    print(MetricsRegistry().render(payload.get("metrics", {})))
    return 0


def _cmd_tail(args) -> int:
    """Live view of a serve fleet's flight recorder (``/debug/requests``).

    Polls the fleet-merged debug endpoint and prints each request record
    once (dedup by trace id + start + worker), newest last — a
    ``tail -f`` for HTTP traffic.  ``--slow`` switches to the slowest
    retained requests instead of the newest.
    """
    import urllib.error
    import urllib.request

    base = args.url.rstrip("/")
    endpoint = "/debug/slow" if args.slow else "/debug/requests"
    url = f"{base}{endpoint}?n={max(1, args.count)}"
    seen: set = set()
    try:
        while True:
            try:
                with urllib.request.urlopen(url, timeout=10.0) as resp:
                    payload = json.load(resp)
            except (urllib.error.URLError, OSError, ValueError) as exc:
                print(f"error: {url} unreachable ({exc})", file=sys.stderr)
                if args.once:
                    return 1
                time.sleep(args.interval)
                continue
            rows = (payload.get("data") or {}).get("requests") or []
            for row in rows:
                key = (row.get("trace_id"), row.get("start_unix"), row.get("worker"))
                if key in seen:
                    continue
                seen.add(key)
                worker = row.get("worker")
                stamp = time.strftime(
                    "%H:%M:%S", time.localtime(float(row.get("start_unix") or 0.0))
                )
                print(
                    f"{stamp} "
                    f"{1e3 * float(row.get('duration_s') or 0.0):9.2f}ms "
                    f"{row.get('status', '?'):>3} "
                    f"{('w' + str(worker)) if worker is not None else '-':>3} "
                    f"{row.get('method', '?'):<6} {row.get('path', '?')} "
                    f"trace={row.get('trace_id')}",
                    flush=True,
                )
            if args.once:
                return 0
            if len(seen) > 100_000:
                seen.clear()  # bound memory over a very long tail
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_report(args) -> int:
    """List the run ledger, summarise one run, or compare two runs."""
    from repro.provenance.drift import compare_runs
    from repro.provenance.manifest import RunLedger
    from repro.provenance.report import (
        _summaries,
        format_drift_report,
        format_run_report,
    )

    ledger = RunLedger(args.runs_dir)
    if args.prune is not None:
        removed = ledger.prune(args.prune)
        print(f"pruned {len(removed)} runs, kept {len(ledger.ids())}")
        return 0
    if args.compare:
        run_a, run_b = args.compare
        manifest_a = ledger.get(run_a)
        manifest_b = ledger.get(run_b)
        report = compare_runs(manifest_a, manifest_b)
        rendered = format_drift_report(
            report, manifest_a, manifest_b, ledger, fmt=args.format
        )
        _emit_report(rendered, args.out)
        return 0 if report.clean else 1
    if args.run_id:
        manifest = ledger.get(args.run_id)
        _emit_report(
            format_run_report(manifest, ledger, fmt=args.format), args.out
        )
        return 0
    manifests = ledger.list()
    if args.ids:
        for manifest in manifests:
            print(manifest.run_id)
        return 0
    if not manifests:
        print(
            f"run ledger {ledger.root} is empty; run `accelerator-wall "
            "export` or `plot fig13` to record a run"
        )
        return 0
    print(f"=== run ledger ({ledger.root}) ===")
    print(render_rows(_summaries(manifests)))
    return 0


def _emit_report(rendered: str, out: Optional[str]) -> None:
    if out:
        from pathlib import Path

        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
        print(f"wrote report {path}")
    else:
        print(rendered, end="")


def _cmd_tables(args) -> int:
    for title, rows in (
        ("Table I: specialization concepts", table1_specialization_concepts()),
        ("Table III: sweep parameters", table3_sweep_parameters()),
        ("Table IV: applications", table4_applications()),
        ("Table V: wall parameters", table5_wall_parameters()),
    ):
        print(f"\n=== {title} ===")
        print(render_rows(rows))
    return 0


def _cmd_study(args) -> int:
    model = _model(args)
    study = named_study(args.name)
    series = study.performance_series(model)
    print(f"=== {study.name}: performance CSR series ===")
    print(render_rows([
        {"chip": p.name, "node": f"{p.node_nm:g}nm", "gain_x": p.gain,
         "physical_x": p.physical, "csr_x": p.csr}
        for p in series
    ]))
    summary = study.summary(model)
    print("\nsummary: " + ", ".join(f"{k}={v:.3g}" for k, v in summary.items()))
    return 0


def _cmd_wall(args) -> int:
    from repro.wall import time_to_wall_all_domains, wall_report_all_domains

    model = _model(args)
    rows = []
    for report in wall_report_all_domains(model):
        low, high = report.headroom
        rows.append(
            {
                "domain": report.domain,
                "metric": report.metric,
                "best_today": f"{report.current_best:.4g} {report.gain_unit}",
                "wall_log": f"{report.projected_log:.4g}",
                "wall_linear": f"{report.projected_linear:.4g}",
                "headroom": f"{low:.1f}-{high:.1f}x",
            }
        )
    print(render_rows(rows))
    print("\nat historical pace:")
    for estimate in time_to_wall_all_domains(model):
        print(f"  {estimate.describe()}")
    return 0


def _cmd_maturity(args) -> int:
    from repro.csr.trends import assess_maturity
    from repro.studies import bitcoin, fpga_cnn, gpu_graphics, video_decoders

    model = _model(args)
    domains = [
        ("video_decoders", video_decoders.study()),
        ("gpu_graphics", gpu_graphics.study()),
        ("fpga_cnn_alexnet", fpga_cnn.study("alexnet")),
        ("bitcoin_asic", bitcoin.asic_study()),
    ]
    for name, study in domains:
        assessment = assess_maturity(study.performance_series(model), name)
        print(assessment.describe())
    return 0


PLOTS = ("fig1", "fig4", "fig9", "fig13", "fig15")


def _cmd_plot(args) -> int:
    with _observed(args, "plot") as run:
        return _plot_body(args, run)


def _plot_body(args, run) -> int:
    from repro.reporting.ascii_plots import (
        plot_csr_series,
        plot_frontier,
        plot_runtime_power,
    )

    tech = getattr(args, "tech", None)
    backend = None
    if tech and tech != "cmos":
        from repro.tech import get_backend

        backend = get_backend(tech)
    # The only place --tech selects the model: the history plots (Figs 1,
    # 4, 9) evaluate every measured chip under the backend's model.
    model = backend.model() if backend is not None else _model(args)
    name = args.figure
    if name == "fig1":
        from repro.studies import bitcoin

        series = bitcoin.asic_study().performance_series(model)
        print(plot_csr_series(series, "Fig 1: Bitcoin ASIC evolution"))
    elif name == "fig4":
        from repro.studies import video_decoders

        series = video_decoders.study().performance_series(model).sorted_by_gain()
        print(plot_csr_series(series, "Fig 4a: video decoder throughput"))
    elif name == "fig9":
        from repro.studies import bitcoin

        series = bitcoin.study().performance_series(model)
        print(plot_csr_series(series, "Fig 9a: mining gains across platforms"))
    elif name == "fig13":
        from repro.accel.sweep import default_design_grid
        from repro.workloads import get_workload

        engine = run["engine"] = _dse_engine(args)
        kernel = engine.trace(get_workload("S3D"))
        result = engine.sweep(kernel, default_design_grid())
        print(plot_runtime_power(result.reports))
        print(f"[dse] {result.stats.describe()}")
    elif name == "fig15":
        from repro.wall import upper_frontier, wall_report_all_domains

        if backend is not None:
            from repro.tech.scenarios import wall_reports

            # The fig15_16_<tech> walls: history stays CMOS, the limit
            # chip is built in the backend.
            reports = wall_reports(backend)
            tag = f" [{tech}]"
        else:
            reports = wall_report_all_domains(model)
            tag = ""
        for report in reports:
            if report.metric != "performance":
                continue
            frontier = upper_frontier(report.points)
            title = f"Fig 15: {report.domain}{tag}"
            print(plot_frontier(report.points, frontier, title))
            print(report.describe())
            print()
    else:  # pragma: no cover - argparse choices prevent this
        raise ValueError(name)
    return 0


def _cmd_insights(args) -> int:
    from repro.studies.insights import default_insights

    model = _model(args)
    failures = 0
    for insight in default_insights(model):
        print(insight.describe())
        failures += 0 if insight.holds else 1
    return 1 if failures else 0


def _cmd_check(args) -> int:
    from repro.check import run_checks, render_results
    from repro.obs.metrics import metrics

    manifest = _capture_manifest(args, "check")
    results = run_checks(args.subsystem or None, tech=getattr(args, "tech", None))
    print(render_results(results))
    if manifest is not None:
        manifest.checks = [result.to_dict() for result in results]
        _record_manifest(manifest, metrics().snapshot())
    return 0 if all(result.ok for result in results) else 1


def _cmd_export(args) -> int:
    from repro.reporting.export import export_all

    with _observed(args, "export") as run:
        engine = run["engine"] = _dse_engine(args)
        names = (
            [name.strip() for name in args.only.split(",") if name.strip()]
            if args.only
            else None
        )
        paths = export_all(
            args.out,
            _model(args),
            names=names,
            engine=engine,
            manifest=run["manifest"],
            tech=getattr(args, "tech", None),
        )
        for name, path in paths.items():
            print(f"wrote {path}")
        if engine.stats.design_points:
            print(f"[dse] {engine.stats.describe()}")
        return 0


def _cmd_serve(args) -> int:
    from repro.serve import ServeApp, ServeConfig

    workers = max(1, args.workers)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=getattr(args, "cache_dir", None),
        use_cache=not getattr(args, "no_cache", False)
        and (getattr(args, "cache_dir", None) is not None or workers > 1),
        workers=workers,
        response_cache=args.response_cache,
        rate_limit=args.rate_limit,
        max_inflight=args.max_inflight,
        job_concurrency=args.job_concurrency,
        drain_timeout_s=args.drain_timeout,
        flight_recorder=args.flight_recorder,
    )
    if workers > 1:
        from repro.serve.supervisor import Supervisor

        return Supervisor(config).run()
    return ServeApp(config).run()


class _VersionAction(argparse.Action):
    """``--version`` printing the single-sourced version + git SHA.

    A custom action (not ``action="version"``) so the git subprocess only
    runs when the flag is actually used, not on every parser build.
    """

    def __init__(self, option_strings, dest, **kwargs):
        kwargs.setdefault("nargs", 0)
        kwargs.setdefault("help", "show the package version and git SHA, then exit")
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        import repro

        print(repro.version_string())
        parser.exit(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accelerator-wall",
        description="Reproduction of 'The Accelerator Wall' (HPCA 2019)",
    )
    parser.add_argument("--version", action=_VersionAction, dest="_version")
    parser.add_argument(
        "--refit",
        action="store_true",
        help="refit the CMOS model from the bundled chip population "
        "instead of using the paper's published constants",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="structured key=value logging on repro.* loggers "
        "(-v: INFO, -vv: DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I, III, IV, V").set_defaults(
        func=_cmd_tables
    )

    study = sub.add_parser("study", help="print one case study's CSR series")
    study.add_argument("name", choices=STUDIES)
    study.set_defaults(func=_cmd_study)

    sub.add_parser("wall", help="print the Figs 15-16 projections").set_defaults(
        func=_cmd_wall
    )

    sub.add_parser(
        "maturity", help="classify each domain's CSR maturity"
    ).set_defaults(func=_cmd_maturity)

    sub.add_parser(
        "insights", help="check the Section IV-E observations"
    ).set_defaults(func=_cmd_insights)

    check = sub.add_parser(
        "check",
        help="run the numerical self-diagnostics (refits, invariants, "
        "engine equivalence); nonzero exit on any failure",
    )
    check.add_argument(
        "subsystem",
        nargs="*",
        metavar="SUBSYSTEM",
        help="restrict to these subsystems: cmos, csr, wall, accel, tech "
        "(default: all)",
    )
    _add_tech_option(check)
    check.set_defaults(func=_cmd_check)

    plot = sub.add_parser("plot", help="render a figure as an ASCII plot")
    plot.add_argument("figure", choices=PLOTS)
    _add_tech_option(plot)
    _add_dse_options(plot)
    plot.set_defaults(func=_cmd_plot)

    stats = sub.add_parser(
        "stats",
        help="show the metrics snapshot persisted by the last DSE-backed run",
    )
    stats.add_argument(
        "--json", action="store_true",
        help="print the raw snapshot as JSON (alias for --format json)",
    )
    stats.add_argument(
        "--format", choices=("table", "json"), default=None,
        help="output format (default: table)",
    )
    stats.set_defaults(func=_cmd_stats)

    tail = sub.add_parser(
        "tail",
        help="live view of a running server's recent requests "
        "(polls /debug/requests)",
    )
    tail.add_argument(
        "--url", default="http://127.0.0.1:8080", metavar="URL",
        help="server base URL (default: http://127.0.0.1:8080)",
    )
    tail.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="poll interval in seconds (default: 2)",
    )
    tail.add_argument(
        "--count", type=int, default=50, metavar="N",
        help="records fetched per poll (default: 50)",
    )
    tail.add_argument(
        "--slow", action="store_true",
        help="show the slowest retained requests (/debug/slow) instead "
        "of the newest",
    )
    tail.add_argument(
        "--once", action="store_true", help="poll once and exit"
    )
    tail.set_defaults(func=_cmd_tail)

    export = sub.add_parser("export", help="write every artifact as JSON")
    export.add_argument("--out", default="artifacts", help="output directory")
    export.add_argument(
        "--only", default=None, metavar="NAMES",
        help="comma-separated artifact subset (e.g. fig13,table5, or "
        "per-tech names like fig15_16_tfet)",
    )
    _add_tech_option(export)
    _add_dse_options(export)
    export.set_defaults(func=_cmd_export)

    serve = sub.add_parser(
        "serve",
        help="serve the model over HTTP (JSON endpoints, background jobs)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=8080, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="sweep-engine worker processes for background sweeps "
        "(0 = all cores)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent DSE cache directory (enables the schedule cache)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent DSE cache even if a directory is set",
    )
    serve.add_argument(
        "--response-cache", type=int, default=1024, metavar="N",
        help="LRU response-cache entries, 0 disables (default: 1024)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="serve worker processes sharing the port; >1 starts a "
        "supervisor that forks, restarts, and drains them (default: 1)",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=0.0, metavar="RPS",
        help="per-client requests/second, 0 disables (default: off)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64, metavar="N",
        help="per-worker in-flight request cap; past it requests are shed "
        "with 503 + Retry-After, 0 disables (default: 64)",
    )
    serve.add_argument(
        "--job-concurrency", type=int, default=1, metavar="N",
        help="background sweep jobs running simultaneously (default: 1)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="S",
        help="graceful-drain budget on SIGTERM (default: 10s)",
    )
    serve.add_argument(
        "--flight-recorder", type=int, default=256, metavar="N",
        help="request records retained per worker for /debug/requests "
        "and `repro tail` (default: 256)",
    )
    serve.set_defaults(func=_cmd_serve)

    report = sub.add_parser(
        "report",
        help="render run-ledger provenance reports and golden-number drift",
    )
    report.add_argument(
        "run_id", nargs="?", default=None,
        help="summarise this run (default: list the ledger)",
    )
    report.add_argument(
        "--compare", nargs=2, metavar="RUN", default=None,
        help="diff two runs' golden numbers and perf stats (exit 1 on drift)",
    )
    report.add_argument(
        "--format", choices=("md", "html"), default="md",
        help="report rendering (default: md)",
    )
    report.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    report.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="run-ledger directory (default: $REPRO_RUNS_DIR or "
        "<cache-dir>/runs)",
    )
    report.add_argument(
        "--ids", action="store_true",
        help="print run ids only, oldest first (scripting)",
    )
    report.add_argument(
        "--prune", type=int, default=None, metavar="N",
        help="keep only the N most recent runs, delete the rest",
    )
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Any :class:`~repro.errors.ReproError` a command raises is reported as a
    one-line ``error:`` message on stderr with exit code :data:`EXIT_ERROR`
    — library failures are expected operational outcomes (bad dataset,
    degenerate fit), not tracebacks.
    """
    args = build_parser().parse_args(argv)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    if args.verbose:
        from repro.obs.log import configure_logging

        configure_logging(args.verbose)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    sys.exit(main())
