"""Machine-speed probe: a fixed kernel timed next to the program's work.

On a shared 2-vCPU host the speed of one thread moves by up to 2x in spells
of one to a few seconds, and CPU time moves with it, so wall and CPU times
of the same work do not repeat from run to run. The probe times a fixed
piece of numpy work at moments the worker chooses, and a span of program
work is then reported in reference milliseconds: each stretch of its wall
time scaled by REFERENCE_MS over the probe time measured next to it, with
the probes' own time taken out. The probe's work has the program's mix of
a windowed FFT, many small complex linear-algebra calls and a
phase-and-sum, so a slow spell stretches both alike. In a 4-minute trace
alternating the two stream chains, the spread (CV) of per-frame p50
between 1,000-frame windows fell from 4.6 % to 1.0 % on Capon and from
2.1 % to 0.9 % on DBF. Raw wall times are kept alongside.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

import reference

# The probe kernel takes this long at the reference speed; on this host it
# is about its median time, so reference ms read close to wall ms.
REFERENCE_MS = 1.5
WARMUP = 20


class SpeedProbe:
    def __init__(self, period_s: float = 0.0):
        rng = np.random.default_rng(0)
        shape = (3, 128, 64)
        self._cube = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self._window = reference.hann(shape[2])
        self._snapshots = rng.standard_normal((6, 2, 11)) + 1j * rng.standard_normal((6, 2, 11))
        self._beams = np.exp(1j * rng.uniform(0, 2 * np.pi, (40, 3, 3)))
        self._period_ns = int(period_s * 1e9)
        self._starts = []
        self._ends = []
        for _ in range(WARMUP):
            self._kernel()

    def _kernel(self):
        """A windowed range FFT, six 2x2 sample covariances with their
        pseudoinverse and eigenvalues, and a phase-and-sum over a small beam
        grid: the kinds of numpy call a frame makes."""
        np.abs(np.fft.fft(self._cube * self._window, axis=2)).sum()
        for x in self._snapshots:
            r = x @ x.conj().T / x.shape[1]
            r = (r + r.conj().T) / 2.0
            np.linalg.pinv(r, rcond=1e-12, hermitian=True)
            np.linalg.eigvalsh(r)
        np.abs(np.einsum("mrd,tpm->rtpd", self._cube[:, :32, :11], self._beams)).sum()

    def run(self):
        start = time.perf_counter_ns()
        self._kernel()
        self._starts.append(start)
        self._ends.append(time.perf_counter_ns())

    def maybe(self):
        """Probe when the period has passed since the last probe."""
        if not self._ends or time.perf_counter_ns() - self._ends[-1] >= self._period_ns:
            self.run()

    def _factor(self, i: int) -> float:
        return REFERENCE_MS * 1e6 / (self._ends[i] - self._starts[i])

    def reference_ms(self, start_ns: int, end_ns: int) -> float:
        """Work time in [start_ns, end_ns] in reference ms, probe time left out.

        Each stretch of work is scaled by the probe that ends it; the last
        stretch by the first probe after ``end_ns``, or the last one before.
        """
        first = bisect.bisect_left(self._starts, start_ns)
        last = bisect.bisect_left(self._starts, end_ns)
        total, cursor = 0.0, start_ns
        for i in range(first, last):
            total += (self._starts[i] - cursor) / 1e6 * self._factor(i)
            cursor = self._ends[i]
        closing = last if last < len(self._starts) else len(self._starts) - 1
        return total + (end_ns - cursor) / 1e6 * self._factor(closing)
