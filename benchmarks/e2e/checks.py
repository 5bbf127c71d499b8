"""Output checks: every run compares what the program produced.

* Batch workloads: the golden numbers of the outputs
  (:func:`repro.provenance.drift.golden_numbers`) against the committed
  ``reference/<workload>.json``, through ``compare_golden``.  Any drifted,
  added or removed quantity fails the run.
* Serve workloads: sampled responses against the public function the
  handler calls, recomputed in this process -- the scalar oracle
  ``evaluate_design`` and ``attribute_gains`` for the DSE endpoints, the
  fitted models and studies for the model endpoints, and ``export_all``
  read back for artifacts.  Equality is exact: both sides go through JSON
  and compare as canonical text, so floats must match bit for bit.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Sequence
from urllib.parse import parse_qs, urlsplit

from loadgen import Outcome

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: /evaluate responses checked per run (every /attribute is checked).
EVALUATE_SAMPLES = 200
#: Responses checked per serve_model endpoint family.
MODEL_SAMPLES = 20


def canonical(value: object) -> str:
    """JSON text with sorted keys: equal text means bit-identical data."""
    return json.dumps(json.loads(json.dumps(value)), sort_keys=True)


# -- batch workloads -----------------------------------------------------------


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def golden_problems(reference: dict, result: dict) -> List[str]:
    """Why a batch run's outputs differ from the reference (empty if equal)."""
    from repro.provenance.drift import compare_golden

    compared, drifted, added, removed = compare_golden(
        reference["golden"], result["golden"]
    )
    problems = [d.describe() for d in drifted[:5]]
    if len(drifted) > 5:
        problems.append(f"... {len(drifted) - 5} more drifted quantities")
    if added:
        problems.append(f"{len(added)} added quantities, e.g. {added[0]}")
    if removed:
        problems.append(f"{len(removed)} removed quantities, e.g. {removed[0]}")
    expected_checks = reference.get("checks")
    if expected_checks is not None:
        got = result.get("checks", {})
        if sorted(got) != sorted(expected_checks):
            problems.append(f"check set changed: {sorted(got)}")
        problems.extend(f"check failed: {name}" for name, ok in got.items() if not ok)
    return problems


# -- serve_evaluate ------------------------------------------------------------


class EvaluateOracle:
    """Scalar recomputation of ``/evaluate`` and ``/attribute`` responses."""

    def __init__(self) -> None:
        from repro.accel.resources import ResourceLibrary

        self.library = ResourceLibrary()
        self._kernels: Dict[str, object] = {}
        self._caches: Dict[str, object] = {}
        self._attributions: Dict[tuple, dict] = {}

    def _kernel(self, abbrev: str):
        from repro.accel.sweep import ScheduleCache
        from repro.workloads import get_workload

        if abbrev not in self._kernels:
            kernel = get_workload(abbrev).build()
            self._kernels[abbrev] = kernel
            self._caches[abbrev] = ScheduleCache(kernel, self.library)
        return self._kernels[abbrev], self._caches[abbrev]

    def expected(self, body: dict, path: str) -> dict:
        from repro.accel.attribution import attribute_gains
        from repro.accel.design import DesignPoint
        from repro.accel.power import evaluate_design

        kernel, cache = self._kernel(body["workload"])
        if path == "/attribute":
            key = (body["workload"], body["metric"])
            if key not in self._attributions:
                attribution = attribute_gains(kernel, body["metric"])
                self._attributions[key] = {
                    "workload": kernel.name,
                    "metric": body["metric"],
                    "total_gain": attribution.total_gain,
                    "csr": attribution.csr,
                    "shares": attribution.shares,
                }
            return self._attributions[key]
        design = DesignPoint(
            node_nm=body["node_nm"],
            partition=body["partition"],
            simplification=body["simplification"],
            heterogeneity=True,
        )
        report = evaluate_design(kernel, design, self.library, precomputed=cache.get(design))
        return {
            "workload": report.kernel,
            "design": {
                "node_nm": design.node_nm,
                "partition": design.partition,
                "simplification": design.simplification,
                "heterogeneity": design.heterogeneity,
            },
            "runtime_s": report.runtime_s,
            "power_w": report.power_w,
            "energy_nj": report.energy_nj,
            "throughput_ops": report.throughput_ops,
            "energy_efficiency": report.energy_efficiency,
        }


# -- serve_model ---------------------------------------------------------------


class ModelOracle:
    """Recomputation of the model endpoints from the library's public API."""

    def __init__(self, export_dir: Path, outcomes: Sequence[Outcome]) -> None:
        from repro.cmos.model import CmosPotentialModel
        from repro.reporting.export import export_all

        self.model = CmosPotentialModel.paper()
        names = set()
        for outcome in outcomes:
            path = urlsplit(outcome.request.path)
            if outcome.request.family == "artifact":
                names.add(path.path.rsplit("/", 1)[1])
            elif outcome.request.family == "wall.projections":
                tech = parse_qs(path.query)["tech"][0]
                names.add("fig15_16" if tech == "cmos" else f"fig15_16_{tech}")
        paths = export_all(export_dir, names=sorted(names)) if names else {}
        self._artifacts = {
            name: json.loads(Path(path).read_text())["data"] for name, path in paths.items()
        }

    def artifact(self, name: str) -> object:
        return self._artifacts[name]

    def _tech_model(self, tech: str):
        from repro.tech import get_backend

        return self.model if tech == "cmos" else get_backend(tech).model()

    def expected(self, family: str, path: str, body: Optional[dict]) -> object:
        url = urlsplit(path)
        query = {k: v[0] for k, v in parse_qs(url.query).items()}
        if family == "cmos.gains":
            node = float(query["node"])
            frequency = float(query["frequency_mhz"])
            area = float(query["area_mm2"])
            gains = self.model.evaluate(node, frequency, area_mm2=area, tdp_w=None)
            base = self.model.evaluate(45.0, frequency, area_mm2=area, tdp_w=None)
            return {
                "node_nm": gains.node_nm,
                "baseline_node_nm": base.node_nm,
                "frequency_mhz": frequency,
                "area_mm2": area,
                "tdp_w": None,
                "potential_transistors": gains.potential_transistors,
                "active_transistors": gains.active_transistors,
                "power_w": gains.power_w,
                "tdp_limited": gains.tdp_limited,
                "throughput_gain": gains.throughput / base.throughput,
                "energy_efficiency_gain": gains.energy_efficiency / base.energy_efficiency,
            }
        if family == "csr.study":
            tech = query["tech"]
            model = self._tech_model(tech)
            study = study_object(url.path.rsplit("/", 1)[1])
            series = study.performance_series(model)
            return {
                **({} if tech == "cmos" else {"tech": tech}),
                "study": study.name,
                "metric": series.metric,
                "baseline": series.baseline_name,
                "series": [
                    {
                        "name": p.name,
                        "node_nm": p.node_nm,
                        "year": p.year,
                        "gain": p.gain,
                        "physical": p.physical,
                        "csr": p.csr,
                    }
                    for p in series
                ],
                "summary": study.summary(model),
            }
        if family == "wall.projections":
            tech = query["tech"]
            if tech == "cmos":
                return self.artifact("fig15_16")
            return {
                "tech": tech,
                "baseline": "cmos",
                "projections": self.artifact(f"fig15_16_{tech}"),
            }
        if family == "wall.whatif":
            return whatif_expected(self.model, body or {})
        return self.artifact(url.path.rsplit("/", 1)[1])


def study_object(name: str):
    """The case study ``/csr/{name}`` serves, from the public factories."""
    from repro.studies import bitcoin, fpga_cnn, gpu_graphics, video_decoders

    return {
        "video": video_decoders.study,
        "gpu": gpu_graphics.study,
        "cnn": lambda: fpga_cnn.study("alexnet"),
        "bitcoin": bitcoin.study,
    }[name]()


def whatif_expected(model, body: dict) -> dict:
    from repro.wall import accelerator_wall, wall_sensitivity

    domain, metric = body["domain"], body["metric"]
    baseline = accelerator_wall(domain, model, metric)
    point = wall_sensitivity(
        domain,
        model,
        metric=metric,
        die_scales=(body["die_scale"],),
        tdp_scales=(body["tdp_scale"],),
        frequency_scales=(body["frequency_scale"],),
    )[0]
    low, high = baseline.headroom
    return {
        "domain": domain,
        "metric": metric,
        "scales": {
            "die": point.die_scale,
            "tdp": point.tdp_scale,
            "frequency": point.frequency_scale,
        },
        "baseline": {
            "physical_limit": baseline.physical_limit,
            "headroom_low": low,
            "headroom_high": high,
        },
        "scenario": {
            "physical_limit": point.physical_limit,
            "headroom_low": point.headroom_low,
            "headroom_high": point.headroom_high,
        },
    }


# -- sampling ------------------------------------------------------------------


def sample_for_check(
    outcomes: Sequence[Outcome], seed: int, per_family: Dict[str, int]
) -> List[Outcome]:
    """Seeded sample of answered outcomes; families absent from
    *per_family* are checked in full."""
    rng = random.Random(f"check:{seed}")
    by_family: Dict[str, List[Outcome]] = {}
    for outcome in outcomes:
        if outcome.ok:
            by_family.setdefault(outcome.request.family, []).append(outcome)
    chosen: List[Outcome] = []
    for family in sorted(by_family):
        group = by_family[family]
        limit = per_family.get(family)
        chosen.extend(group if limit is None or len(group) <= limit else rng.sample(group, limit))
    return chosen


def mismatches(outcomes: Sequence[Outcome], expected) -> List[Outcome]:
    """Outcomes whose response data differ from ``expected(outcome)``."""
    bad = []
    for outcome in outcomes:
        data = outcome.data.get("data") if isinstance(outcome.data, dict) else None
        if canonical(data) != canonical(expected(outcome)):
            outcome.error = "response differs from the oracle"
            bad.append(outcome)
    return bad
