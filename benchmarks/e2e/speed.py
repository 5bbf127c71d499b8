"""Host speed, sampled inside each process the benchmark times.

The baseline machine is a share of a busy host. Its speed switches between
a fast and a slow mode, about 1.6x apart, within seconds, and drifts by a
quarter or more over minutes. Every CPU-bound time moves with it: two sets
of the same cold runs half an hour apart had medians 37% apart, and back
to back cold runs varied by 20% (coefficient of variation). No statistic
over a run removes that, and a calibration process run between the timed
processes does not catch the fast switches.

So every process under test samples the speed of the core it runs on while
it runs. A ``SIGALRM`` every :data:`INTERVAL_S` seconds interrupts the
program and times a fixed snippet of plain Python, ``json`` and numpy work
(the second of two runs, so that the snippet's own data are cached). The
snippet is no code of the program, so no change to the program moves it;
it takes 0.4% of the process's time. A phase of the process -- set-up or
work -- is reported at reference speed: its time multiplied by
:data:`REFERENCE_S` over the mean snippet time sampled during it.

On the baseline machine the work time and the mean snippet time of a cold
run correlate at 0.93 (``paper_model``, 182 runs) and 0.97 (``dse_full``,
34 runs), and reference speed brings the coefficient of variation of the
work time from 0.20 to 0.07 and 0.05.
"""

from __future__ import annotations

import json
import signal
import statistics
from time import perf_counter
from typing import List

import numpy

#: Seconds between samples.
INTERVAL_S = 0.05
#: Seconds the snippet takes at reference speed: about its median on the
#: baseline machine (2-vCPU x86_64 VM, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 1.0e-4

_VECTOR = numpy.arange(512.0)


def snippet() -> float:
    table = {k: k * 1.5 for k in range(400)}
    ordered = sorted(table.values(), reverse=True)
    return float(_VECTOR.dot(_VECTOR)) + ordered[0] + len(json.dumps(ordered[:100]))


def measure() -> float:
    """Seconds the snippet takes now, run once to warm it first."""
    snippet()
    start = perf_counter()
    snippet()
    return perf_counter() - start


class Sampler:
    """Samples :func:`measure` on a timer; one per process under test."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._split = 0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(measure()))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def split(self) -> float:
        """Mean snippet time since the previous split, with one more sample
        taken now so that no phase goes without one."""
        self.samples.append(measure())
        phase = self.samples[self._split:]
        self._split = len(self.samples)
        return statistics.fmean(phase)


def scale(snippet_s: float) -> float:
    """Factor that brings a time measured at *snippet_s* to reference speed."""
    return REFERENCE_S / snippet_s
