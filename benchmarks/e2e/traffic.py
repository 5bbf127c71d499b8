"""Seeded request schedules of the two serve workloads.

The benchmark owns the seed; the server only ever sees the generated
requests.  The same seed always yields the same schedule.

``serve_evaluate`` (closed loop) mixes three kinds of DSE query:

* 40% ``/evaluate`` on a hot set of 32 design points -- repeats, so the
  server's response LRU answers them;
* 58% ``/evaluate`` on fresh Table III points across all 16 kernels,
  never repeated in a run -- the batch evaluator and the schedule memo
  do the work;
* 2% ``/attribute`` with ``"full": true`` -- the Fig 14 attribution of one
  kernel over the full grid.  Kernels follow :data:`ATTRIBUTE_ORDER`,
  whatever the seed.  Their costs differ thirtyfold and a run reaches
  only the first few, so a seeded order, or one with a costly kernel
  early, would make a run's throughput depend on which kernels it drew.

``serve_model`` is dashboard traffic over the fitted models: 30%
``/cmos/gains``, 20% ``/csr/{study}?tech=``, 15% ``/wall/projections?tech=``,
20% ``POST /wall/whatif`` and 15% ``/artifacts/{name}`` over every non-DSE
artifact.  The closed-loop sequence is measured end to end; the traced
run also replays the mix at Poisson arrival times (``poisson_schedule``).

The closed-loop mixes are stratified: every block of 50 (20) requests
holds the exact shares above in a seeded order, so a run's mix does not
drift with the seed or with how much of the schedule the run consumes.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from loadgen import Request

#: Closed-loop schedule length; a run consumes a prefix of it.
EVALUATE_REQUESTS = 6000
HOT_POINTS = 32

MODEL_REQUESTS = 6000

STUDIES = ("video", "gpu", "cnn", "bitcoin")
DSE_ARTIFACTS = ("fig13", "fig14")

#: ``/attribute`` kernels, cheapest first: a scalar full-grid attribution
#: took 0.1 s (RED) to 3.0 s (MDY) on the baseline VM.  Kernels missing
#: here follow in ``repro.workloads.WORKLOADS`` order.
ATTRIBUTE_ORDER = (
    "RED", "BFS", "SMV", "SRT", "TRD", "RBM", "KNN", "SSP",
    "S3D", "NWN", "SAD", "S2D", "FFT", "GMM", "AES", "MDY",
)

#: Family counts per block of 50 and of 20 requests.
_EVALUATE_MIX: Tuple[Tuple[str, int], ...] = (
    ("evaluate.hot", 20),
    ("evaluate.fresh", 29),
    ("attribute", 1),
)
_MODEL_MIX: Tuple[Tuple[str, int], ...] = (
    ("cmos.gains", 6),
    ("csr.study", 4),
    ("wall.projections", 3),
    ("wall.whatif", 4),
    ("artifact", 3),
)


def _design_space() -> List[Tuple[str, float, int, int]]:
    """Every (kernel, node, partition, simplification) of Table III."""
    from repro.accel.sweep import default_design_grid
    from repro.workloads import WORKLOADS

    grid = default_design_grid()
    return [
        (w.abbrev, d.node_nm, d.partition, d.simplification)
        for w in WORKLOADS
        for d in grid
    ]


def _evaluate_request(point: Tuple[str, float, int, int], family: str) -> Request:
    kernel, node, partition, simplification = point
    return Request(
        family=family,
        method="POST",
        path="/evaluate",
        body={
            "workload": kernel,
            "node_nm": node,
            "partition": partition,
            "simplification": simplification,
        },
    )


def stratified(rng: random.Random, mix: Sequence[Tuple[str, int]], n: int) -> List[str]:
    """*n* family labels in blocks holding each family's exact count."""
    block = [family for family, count in mix for _ in range(count)]
    labels: List[str] = []
    while len(labels) < n:
        rng.shuffle(block)
        labels.extend(block)
    return labels[:n]


def evaluate_schedule(seed: int, n: int = EVALUATE_REQUESTS) -> List[Request]:
    """The serve_evaluate request sequence for *seed*."""
    from repro.workloads import WORKLOADS

    rng = random.Random(seed)
    space = _design_space()
    order = rng.sample(range(len(space)), HOT_POINTS + n)
    hot = [space[i] for i in order[:HOT_POINTS]]
    fresh = iter(space[i] for i in order[HOT_POINTS:])
    known = [w.abbrev for w in WORKLOADS]
    kernels = [k for k in ATTRIBUTE_ORDER if k in known]
    kernels += [k for k in known if k not in kernels]
    attributed = 0
    requests: List[Request] = []
    for family in stratified(rng, _EVALUATE_MIX, n):
        if family == "evaluate.hot":
            requests.append(_evaluate_request(rng.choice(hot), family))
        elif family == "evaluate.fresh":
            requests.append(_evaluate_request(next(fresh), family))
        else:
            metric = rng.choice(("throughput", "energy_efficiency"))
            kernel = kernels[attributed % len(kernels)]
            attributed += 1
            requests.append(
                Request(
                    family="attribute",
                    method="POST",
                    path="/attribute",
                    body={"workload": kernel, "metric": metric, "full": True},
                )
            )
    return requests


def _model_request(rng: random.Random, family: str, names: dict) -> Request:
    if family == "cmos.gains":
        node = rng.choice(names["nodes"])
        frequency = rng.choice(range(400, 3001, 100))
        area = rng.choice((10, 25, 50, 100, 200, 400, 600))
        return Request(
            family, "GET",
            f"/cmos/gains?node={node:g}&frequency_mhz={frequency}&area_mm2={area}",
        )
    if family == "csr.study":
        study = rng.choice(STUDIES)
        tech = rng.choice(names["techs"])
        return Request(family, "GET", f"/csr/{study}?tech={tech}")
    if family == "wall.projections":
        return Request(
            family, "GET", f"/wall/projections?tech={rng.choice(names['techs'])}"
        )
    if family == "wall.whatif":
        return Request(
            family,
            "POST",
            "/wall/whatif",
            body={
                "domain": rng.choice(names["domains"]),
                "metric": rng.choice(("performance", "efficiency")),
                "die_scale": rng.choice((0.5, 1.0, 2.0, 4.0)),
                "tdp_scale": rng.choice((0.5, 1.0, 2.0)),
                "frequency_scale": rng.choice((0.75, 1.0, 1.5)),
            },
        )
    return Request(family, "GET", f"/artifacts/{rng.choice(names['artifacts'])}")


def model_names() -> dict:
    """The value sets serve_model draws from, read from the program."""
    from repro.cmos.scaling import default_scaling_table
    from repro.reporting.export import artifact_registry
    from repro.reporting.tables import table5_wall_parameters
    from repro.tech import backend_names

    return {
        "nodes": [n for n in default_scaling_table().nodes if n <= 45.0],
        "techs": backend_names(),
        "domains": [row["domain"] for row in table5_wall_parameters()],
        "artifacts": sorted(n for n in artifact_registry() if n not in DSE_ARTIFACTS),
    }


def model_schedule(seed: int, names: dict, n: int = MODEL_REQUESTS) -> List[Request]:
    """The serve_model closed-loop request sequence for *seed*."""
    rng = random.Random(f"model:{seed}")
    return [_model_request(rng, family, names) for family in stratified(rng, _MODEL_MIX, n)]


def poisson_schedule(seed: int, rate: float, step_s: float, names: dict) -> List[Request]:
    """serve_model requests due at Poisson times of *rate* for *step_s*."""
    rng = random.Random(f"poisson:{seed}:{rate}")
    requests: List[Request] = []
    due = rng.expovariate(rate)
    while due < step_s:
        request = _model_request(rng, _family(rng), names)
        requests.append(
            Request(request.family, request.method, request.path, request.body, due)
        )
        due += rng.expovariate(rate)
    return requests


def _family(rng: random.Random) -> str:
    """One family drawn independently with the mix's weights."""
    return rng.choices([f for f, _ in _MODEL_MIX], [c for _, c in _MODEL_MIX])[0]
