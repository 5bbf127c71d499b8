"""One process under test: a cold batch run, or a ``repro serve`` server.

Run by ``run.py``, never by hand::

    python child.py batch dse_full RESULT [--trace] [--setup-only]
    python child.py serve RESULT [--trace] -- --port 0

Every process samples the speed of its core while it runs
(:class:`speed.Sampler`) and reports the mean snippet time of each phase,
so the parent can give its times at reference speed.

A batch run imports what its workload needs, prints ``ready`` (the parent
times spawn-to-ready as set-up), does the work once, and writes a JSON
result: work time, the golden numbers of its outputs, the snippet times,
and, when traced, the per-layer summary and the process metrics counters.

``serve`` runs the real CLI entry point, ``repro serve``, the same as
``python -m repro serve``. Sampling stops when the server announces
``serving on``; the set-up snippet time is in RESULT by then. With
``--trace`` it installs the layer tracer first, and the span summary is
added to RESULT when the server exits after its SIGTERM drain.
"""

from __future__ import annotations

import atexit
import json
import re
import sys
from pathlib import Path
from time import perf_counter

import speed


def _counters() -> dict:
    """The process metrics registry, keyed like its Prometheus names."""
    from repro.obs.metrics import metrics

    out = {}
    for name, entry in metrics().snapshot().items():
        if entry.get("type") == "counter":
            out["repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)] = entry["value"]
    return out


def _dse_full(_workdir: Path) -> dict:
    from repro.reporting.figures import fig13_stencil_sweep, fig14_gain_attribution

    return {"fig13": fig13_stencil_sweep(), "fig14": fig14_gain_attribution()}


def _paper_model(workdir: Path) -> dict:
    from repro.check import run_checks
    from repro.reporting.export import artifact_registry, export_all

    names = sorted(n for n in artifact_registry() if n not in ("fig13", "fig14"))
    export_all(workdir / "export", names=names)
    return {"checks": run_checks()}


def _exported_payloads(workdir: Path) -> dict:
    """Read the exported artifacts back, as a user of the files would."""
    payloads = {}
    for path in sorted((workdir / "export").glob("*.json")):
        payloads[path.stem] = json.loads(path.read_text())["data"]
    return payloads


def _setup(workload: str) -> None:
    if workload == "dse_full":
        import repro.accel.attribution  # noqa: F401 - imported lazily by fig14
        import repro.accel.sweep  # noqa: F401 - imported lazily by fig13
        import repro.reporting.figures  # noqa: F401
        import repro.workloads  # noqa: F401
    else:
        import repro.check  # noqa: F401
        import repro.reporting.export  # noqa: F401


WORK = {"dse_full": _dse_full, "paper_model": _paper_model}


def batch(workload: str, result_path: Path, trace: bool, setup_only: bool) -> int:
    sampler = speed.Sampler()
    sampler.start()
    tracer = None
    if trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    _setup(workload)
    result: dict = {"setup_snippet_s": sampler.split()}
    print("ready", flush=True)
    if setup_only:
        sampler.stop()
        result_path.write_text(json.dumps(result))
        return 0
    workdir = result_path.parent
    start = perf_counter()
    work = WORK[workload](workdir)
    result["work_s"] = perf_counter() - start
    result["work_snippet_s"] = sampler.split()
    sampler.stop()
    if tracer is not None:
        tracer.ended = perf_counter()
        result["layers"] = tracer.summary()
        result["counters"] = _counters()
    from repro.provenance.drift import golden_numbers

    if workload == "paper_model":
        result["golden"] = golden_numbers(_exported_payloads(workdir))
        result["checks"] = {
            f"{c.subsystem}/{c.name}": c.ok for c in work["checks"]
        }
    else:
        result["golden"] = golden_numbers(work)
    result_path.write_text(json.dumps(result))
    return 0


class _AtReady:
    """Standard output that calls *on_ready* before the ``serving on`` line."""

    def __init__(self, stream, on_ready) -> None:
        self._stream = stream
        self._on_ready = on_ready

    def write(self, text: str) -> int:
        if self._on_ready is not None and text.startswith("serving on"):
            self._on_ready()
            self._on_ready = None
        return self._stream.write(text)

    def __getattr__(self, name: str):
        return getattr(self._stream, name)


def serve(result_path: Path, trace: bool, argv: list) -> int:
    sampler = speed.Sampler()
    sampler.start()
    result: dict = {}

    def ready() -> None:
        result["setup_snippet_s"] = sampler.split()
        sampler.stop()
        result_path.write_text(json.dumps(result))

    sys.stdout = _AtReady(sys.stdout, ready)
    if trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()

        def dump() -> None:
            tracer.ended = perf_counter()
            result["layers"] = tracer.summary()
            result_path.write_text(json.dumps(result))

        atexit.register(dump)
    from repro.cli import main

    return main(["serve", *argv])


def main(argv: list) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "serve":
        split = args.index("--")
        return serve(Path(args[0]), "--trace" in args[:split], args[split + 1:])
    workload, result_path = args[0], Path(args[1])
    return batch(workload, result_path, "--trace" in args, "--setup-only" in args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
