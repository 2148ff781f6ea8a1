"""Host-speed calibration: latencies scaled to a reference speed.

The benchmark runs on a shared host whose speed drifts: the same
interpreter-bound loop takes anywhere from 1x to 1.8x its best time,
in phases of a second to a minute, with no steal time to account for
it.  No statistic of the program's own latencies removes a phase that
outlasts a run.  So the timed loop also times a kernel before each
problem: a fixed piece of work of the kind that dominates the workload,
which never touches deltaprime.  Each latency is scaled by

    reference / (median kernel time within WINDOW_S of the execution)

That is the latency the execution would have had at the speed at which
the kernel takes its reference time.  Each reference is about the
kernel's time on an uncontended core of the 2.1 GHz Xeon the benchmark
was tuned on, so the scaled figures read as that core's uncontended
seconds.  The kernel must match the kind of work: the drift slows
interpreter work about twice as much as LAPACK work, in the same phases.
A change to deltaprime moves the scaled figures as it moves the raw
ones; the raw figures are printed beside them.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

REPEATS = 3              # kernel runs per sample; the sample is their median
WINDOW_S = 1.0           # samples this close to an execution set its speed

_A = np.arange(16.0).reshape(4, 4) / 7.0
_S = np.random.default_rng(0).standard_normal((160, 160))
_S = _S + _S.T


def interpreter() -> float:
    """A Python float loop and a chain of 4x4 numpy calls."""
    s = 0.0
    for i in range(1700):
        s += (i * 0.5) % 3.0
    x = _A
    for _ in range(170):
        x = np.tanh(x @ _A)
    return s + float(x[0, 0])


def lapack() -> float:
    """Eigenvalues of a fixed symmetric 160x160 matrix."""
    return float(np.linalg.eigvalsh(_S)[0])


# kernel and its time at the reference speed, in seconds
KERNELS = {"interpreter": (interpreter, 4.0e-4), "lapack": (lapack, 1.0e-3)}


class Speedometer:
    """Kernel samples taken through a run, and the scale factor they give."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.kernel, self.reference = KERNELS[kind]
        self.at: list[float] = []
        self.took: list[float] = []

    def tick(self) -> None:
        """One sample: the median of REPEATS kernel runs."""
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            self.kernel()
            times.append(perf_counter() - t0)
        self.at.append(perf_counter())
        self.took.append(statistics.median(times))

    def scale(self, start: float, end: float) -> float:
        """Reference time over the median sample within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.took[lo:hi] or self.took
        return self.reference / statistics.median(near)

    def summary(self) -> str:
        return (f"{self.kind} kernel, {len(self.took)} samples: median "
                f"{1e3 * statistics.median(self.took):.4f} ms, best {1e3 * min(self.took):.4f} ms, "
                f"reference {1e3 * self.reference:.4f} ms")
