"""Empirical case studies of chip specialization return (paper Section IV).

Four accelerator domains, each reconstructed from the paper's figures and
cited public sources (see DESIGN.md's substitution table):

* :mod:`repro.studies.video_decoders` — ASIC video decoders (Fig 4);
* :mod:`repro.studies.gpu_graphics` — GPU graphics rendering (Figs 5-7);
* :mod:`repro.studies.fpga_cnn` — FPGA CNN accelerators (Fig 8);
* :mod:`repro.studies.bitcoin` — CPU/GPU/FPGA/ASIC Bitcoin miners (Figs 1, 9).
"""

from typing import Callable, Dict

from repro.memo import memo
from repro.studies.base import CaseStudy, StudyChip
from repro.studies import bitcoin, fpga_cnn, gpu_graphics, video_decoders

__all__ = [
    "STUDIES",
    "CaseStudy",
    "StudyChip",
    "bitcoin",
    "fpga_cnn",
    "gpu_graphics",
    "named_study",
    "video_decoders",
]

_NAMED: Dict[str, Callable[[], CaseStudy]] = {
    "video": video_decoders.study,
    "gpu": gpu_graphics.study,
    "cnn": lambda: fpga_cnn.study("alexnet"),
    "bitcoin": bitcoin.study,
}

#: The named studies of ``repro study``, ``GET /csr/{study}`` and the
#: provenance input fingerprints.
STUDIES = tuple(_NAMED)


def named_study(name: str) -> CaseStudy:
    """The case study called *name* (one of :data:`STUDIES`), built once
    per process."""
    if name not in _NAMED:
        raise ValueError(f"unknown study {name!r}; known: {STUDIES}")
    return memo(("study", name), _NAMED[name])
