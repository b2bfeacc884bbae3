"""Host-speed calibration for wall times measured on a shared machine.

On a small shared VM the same request can take twice as long from one second
to the next, because other tenants load the host.  The benchmark therefore
times a fixed calibration kernel between requests, in time-proportional
samples, and scales each request's wall time by REFERENCE_S over the kernel's
median time around that request: the result is the request's time on a host
running at the reference speed.  The kernel uses no rateaudit code, so a
change to the program moves the scaled times exactly as it moves the raw ones.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Kernel time on the reference machine (2-core x86 VM, Python 3.11, numpy 2.4)
# when its host is quiet; fixes the scale of every normalised time.
REFERENCE_S = 0.002
SAMPLE_EVERY_S = 0.05
WINDOW_S = 1.0

_A = np.random.default_rng(0).normal(size=(4, 4)) + 1j * np.random.default_rng(1).normal(size=(4, 4))
_B = np.random.default_rng(2).normal(size=(9, 9))


def kernel() -> float:
    """Fixed work in the proportions of an audit: interpreter bytecode, many
    calls into numpy on tiny matrices, and one small LAPACK call."""
    table = {}
    for i in range(2500):
        table[i % 61] = table.get(i % 61, 0) + i * i
    acc = 0.0
    for _ in range(60):
        m = np.kron(_A, _A.conj()) @ np.ones(16)
        acc += float(np.abs(m).sum())
    acc += float(np.linalg.eigvalsh(_B + _B.T)[0])
    return acc


class HostSpeed:
    """Kernel timings taken while a run goes on."""

    def __init__(self):
        self.times = []  # start of each kernel sample
        self.kernel_s = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.kernel_s.append(t1 - t0)
        return t1

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return REFERENCE_S / statistics.median(self.kernel_s[lo:hi])
