"""Per-layer spans recorded from outside the program.

The traced run installs a :class:`LayerTracer` in the process under test
(a cold batch run or the server) before ``repro`` is imported.  It then

* imports every ``repro`` module, timing each module body as a span of
  the layer the module belongs to (a layer's cost includes loading it);
* wraps each layer's public entry points listed in :data:`LAYERS`, in
  the defining module *and* in every module that imported the function
  by name (``repro.accel.sweep.run_schedule`` is ``scheduler.schedule``).

Spans stay in memory -- ``(layer, thread, start, end, parent)`` -- and are
reduced when the process ends.  A span's self time is its duration
minus the part of it that its child spans cover (:func:`self_time`);
``unspanned_s`` is the process lifetime no root span covers.  Nothing in
``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import importlib.machinery
import pkgutil
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]

#: layer -> (module prefixes whose load time it owns, wrapped entry points)
#: Entry points are ``"module:attr"`` or ``"module:Class.method"``.
LAYERS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "accel.scheduler": (
        ("repro.accel.scheduler",),
        ("repro.accel.scheduler:schedule",),
    ),
    "accel.power": (
        ("repro.accel.power",),
        ("repro.accel.power:evaluate_design",),
    ),
    "accel.attribution": (
        ("repro.accel.attribution",),
        ("repro.accel.attribution:attribute_gains",),
    ),
    "accel.batch": (
        ("repro.accel.batch",),
        ("repro.accel.batch:BatchEvaluator.evaluate",),
    ),
    "accel.sweep": (
        ("repro.accel.sweep",),
        (
            "repro.accel.sweep:sweep",
            "repro.accel.sweep:ScheduleCache.get_structural",
        ),
    ),
    "accel.trace": (
        ("repro.accel.trace", "repro.workloads", "repro.dfg"),
        ("repro.workloads.registry:Workload.build",),
    ),
    "cmos.model": (
        ("repro.cmos.model", "repro.cmos.gains", "repro.cmos.scaling",
         "repro.cmos.nodes"),
        ("repro.cmos.model:CmosPotentialModel.evaluate",),
    ),
    "cmos.fit": (
        ("repro.cmos.transistors", "repro.cmos.tdp"),
        (
            "repro.cmos.transistors:fit_transistor_count",
            "repro.cmos.tdp:fit_tdp_model",
        ),
    ),
    "studies.series": (
        ("repro.studies", "repro.csr", "repro.datasheets"),
        (
            "repro.studies.base:CaseStudy.performance_series",
            "repro.studies.base:CaseStudy.efficiency_series",
            "repro.studies.base:CaseStudy.summary",
        ),
    ),
    "wall.projection": (
        ("repro.wall",),
        (
            "repro.wall.limits:accelerator_wall",
            "repro.wall.sensitivity:wall_sensitivity",
        ),
    ),
    "tech.scenario": (
        ("repro.tech",),
        (
            "repro.tech.base:TechBackend.model",
            "repro.tech.scenarios:wall_reports",
            "repro.tech.scenarios:table5_rows",
            "repro.tech.scenarios:csr_rows",
            "repro.tech.scenarios:scenario_payload",
            "repro.tech.scenarios:delta_payload",
        ),
    ),
    "reporting": (
        ("repro.reporting",),
        ("repro.reporting.export:export_all",)
        + tuple(
            f"repro.reporting.figures:{name}"
            for name in (
                "fig1_bitcoin_evolution", "fig3a_device_scaling",
                "fig3b_transistor_density", "fig3c_tdp_budget",
                "fig3d_chip_gains", "fig4_video_decoders",
                "fig5_gpu_frame_rates", "fig6_7_architecture_scaling",
                "fig8_fpga_cnn", "fig9_bitcoin_platforms",
                "fig13_stencil_sweep", "fig14_gain_attribution",
                "fig15_16_projections", "fig15_16_tech_projections",
            )
        )
        + tuple(
            f"repro.reporting.tables:{name}"
            for name in (
                "table1_specialization_concepts", "table2_concept_limits",
                "table3_sweep_parameters", "table4_applications",
                "table5_wall_parameters",
            )
        ),
    ),
    "provenance": (
        ("repro.provenance",),
        (
            "repro.provenance.manifest:capture",
            "repro.provenance.manifest:RunLedger.record",
            "repro.provenance.drift:golden_numbers",
        ),
    ),
    "check": (
        ("repro.check",),
        ("repro.check:run_checks",),
    ),
    "serve": (
        ("repro.serve",),
        (
            "repro.serve.handlers:compute_evaluate_batch",
            "repro.serve.handlers:compute_whatif",
            "repro.serve.app:ServeApp.startup",
        ),
    ),
}


# -- interval arithmetic -------------------------------------------------------


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by *intervals* (overlaps counted once)."""
    total = 0.0
    current: Optional[List[float]] = None
    for start, end in sorted(intervals):
        if current is None or start > current[1]:
            if current is not None:
                total += current[1] - current[0]
            current = [start, end]
        else:
            current[1] = max(current[1], end)
    if current is not None:
        total += current[1] - current[0]
    return total


def self_time(span: Interval, children: Sequence[Interval]) -> float:
    """*span*'s duration minus the part its *children* cover."""
    start, end = span
    clipped = [
        (max(start, s), min(end, e)) for s, e in children if s < end and e > start
    ]
    return (end - start) - union_length(clipped)


def layer_of(module: str) -> Optional[str]:
    """The layer owning *module*'s load time (longest prefix), if any."""
    best: Optional[Tuple[int, str]] = None
    for layer, (prefixes, _) in LAYERS.items():
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                if best is None or len(prefix) > best[0]:
                    best = (len(prefix), layer)
    return best[1] if best is not None else None


# -- the tracer ----------------------------------------------------------------


class LayerTracer:
    """Thread-aware span recorder with by-name function wrapping."""

    def __init__(self) -> None:
        self.started = perf_counter()
        self.ended: Optional[float] = None
        #: (layer, kind, thread, start, end, parent index or -1)
        self.spans: List[Tuple[str, str, int, float, float, int]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # span bookkeeping

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str, kind: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                (layer, kind, threading.get_ident(), perf_counter(), 0.0, parent)
            )
        stack.append(index)
        return index

    def exit(self, index: int) -> None:
        end = perf_counter()
        self._stack().pop()
        with self._lock:
            layer, kind, thread, start, _, parent = self.spans[index]
            self.spans[index] = (layer, kind, thread, start, end, parent)

    def wrap(self, fn, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.enter(layer, "call")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(index)

        return traced

    # installation

    def install(self) -> None:
        """Time module loads, import all of ``repro``, wrap entry points."""
        sys.meta_path.insert(0, _TimedFinder(self))
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        for layer, (_, entries) in LAYERS.items():
            for entry in entries:
                self._patch(entry, layer)

    def _patch(self, entry: str, layer: str) -> None:
        module_name, _, qualname = entry.partition(":")
        owner = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attr = qualname.split(".")
            cls = getattr(owner, class_name)
            setattr(cls, attr, self.wrap(cls.__dict__[attr], layer))
            return
        original = getattr(owner, qualname)
        traced = self.wrap(original, layer)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, traced)

    # reduction

    def summary(self) -> Dict[str, float]:
        """Per-layer ``calls``/``self_s``, ``unspanned_s`` and ``traced_wall_s``."""
        end = self.ended if self.ended is not None else perf_counter()
        children: Dict[int, List[Interval]] = defaultdict(list)
        roots: List[Interval] = []
        for layer, kind, thread, start, stop, parent in self.spans:
            if stop == 0.0:
                stop = end  # still open at exit (e.g. an idle thread)
            if parent >= 0:
                children[parent].append((start, stop))
            else:
                roots.append((start, stop))
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for index, (layer, kind, _, start, stop, _) in enumerate(self.spans):
            stop = stop or end
            out[f"{layer}.self_s"] += self_time((start, stop), children[index])
            if kind == "call":
                out[f"{layer}.calls"] += 1
        wall = end - self.started
        out["traced_wall_s"] = wall
        out["unspanned_s"] = wall - union_length(
            (max(s, self.started), min(e, end)) for s, e in roots
        )
        return out


class _TimedFinder(importlib.abc.MetaPathFinder):
    """Wraps each ``repro`` module's loader so its body runs in a span."""

    def __init__(self, tracer: LayerTracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        layer = layer_of(fullname)
        if layer is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        loader = spec.loader
        exec_module = loader.exec_module
        tracer = self.tracer

        def timed_exec(module):
            index = tracer.enter(layer, "load")
            try:
                exec_module(module)
            finally:
                tracer.exit(index)

        loader.exec_module = timed_exec
        return spec
