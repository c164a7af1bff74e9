"""Machine-speed gauge for the benchmark's timings.

The 2-core host this benchmark was built on changes speed by 20 % and more
over minutes, for every process alike (CPU time tracks wall time, so it is
not time taken away from the process), and within seconds. A short,
fixed reference slice of numpy and interpreter work is run after every
timed frame and before and after each set-up; it slows down with the host.
Timings are reported at the nominal reference speed: each frame's time is
multiplied by ``NOMINAL_S`` over the duration of the slice that ran right
after it, and a set-up's time by ``NOMINAL_S`` over the median of the
slices around it. A change to finray does not change the slice, so a
slower program still reads slower.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# the slice's median wall time on the reference host, between frames
NOMINAL_S = 2.5e-3

_A = np.random.default_rng(7).random((48, 48))
_P = np.random.default_rng(8).random((300, 3))


def _slice() -> float:
    acc = 0.0
    for i in range(120):
        b = _A @ _A
        d = _P - _P[i]
        acc += float(np.einsum("ij,ij->", d, d)) + float(b[0, 0])
        acc += sum(range(200)) * 1e-12
    return acc


class SpeedGauge:
    """Reference-slice durations taken alongside a measurement."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> float:
        """Run ``n`` slices; returns the wall time they took."""
        start = perf_counter()
        for _ in range(n):
            t0 = perf_counter()
            _slice()
            self.samples.append(perf_counter() - t0)
        return perf_counter() - start

    def scale(self) -> float:
        """Factor that brings timings taken alongside the samples to the
        nominal reference speed."""
        return NOMINAL_S / statistics.median(self.samples)
