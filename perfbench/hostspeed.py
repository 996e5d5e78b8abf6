"""Host speed, read with a fixed calibration kernel.

The benchmark's host is a few cores of a shared machine.  Its speed swings
by up to 1.7x for seconds at a time while CPU time still equals wall time,
so the noise is in how fast the cores run, not in descheduling, and no
statistic over one run's own timings removes it.  A fixed kernel, timed in
the same process as the work it calibrates and interleaved with it, reads
that speed.  ``run.py`` scales the program's times by ``REFERENCE_S`` over
the kernel's mean time in the same process, which gives the time the work
would have taken at the reference speed.  A change to the program moves the
scaled figures as much as the raw ones; the kernel does not depend on it.

The kernel mixes what the program spends its time on: interpreter-bound
dict and list work, small numpy vector operations, and the matrix products
of a forward and backward pass of a two-hidden-layer net at DQN's sizes.
It draws only from its own generator, seeded here, so it changes no
random stream of the program.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel seconds at the reference speed: about the median on a 2-vCPU
# Xeon VM when its host was in its faster state.
REFERENCE_S = 0.8e-3
# Least wall time between two kernel samples inside a command
INTERVAL_S = 0.04

_rng = np.random.default_rng(20171130)
_A = _rng.standard_normal((64, 268))
_V = _rng.standard_normal(268)
_X = _rng.standard_normal((32, 268))
_W1 = _rng.standard_normal((268, 300)) * 0.05
_W2 = _rng.standard_normal((300, 100)) * 0.05


def _interpreter(n: int = 150) -> int:
    counts: dict[tuple[str, int], int] = {}
    odd = 0
    for i in range(n):
        key = ("slot", i % 97)
        counts[key] = counts.get(key, 0) + i
        odd += len([x for x in (i, i + 1, i + 2) if x & 1])
    return odd


def _vectors(n: int = 16) -> int:
    best = 0
    for _ in range(n):
        h = np.tanh(_A @ _V)
        e = np.exp(h - h.max())
        best += int(np.argmax(e / e.sum()))
    return best


def _matrices() -> float:
    h1 = np.maximum(_X @ _W1, 0.0)
    h2 = np.maximum(h1 @ _W2, 0.0)
    g2 = h2 * 0.01
    g1 = (g2 @ _W2.T) * (h1 > 0)
    return float((h1.T @ g2).sum() + (_X.T @ g1).sum())


def kernel() -> float:
    """Run the kernel once and return its wall seconds."""
    start = perf_counter()
    _interpreter()
    _vectors()
    _matrices()
    return perf_counter() - start


def scale(samples: list[float]) -> float:
    """The factor that turns times measured alongside ``samples`` into
    times at the reference speed."""
    return REFERENCE_S * len(samples) / sum(samples)


class Sampler:
    """Kernel samples spread evenly over a command's wall time: one before
    a dialogue whenever ``INTERVAL_S`` has passed since the last.

    Each sample times the second of two kernel runs back to back, so the
    kernel's data is in cache and the sample reads the core's speed rather
    than how much of the cache the program's own data took.
    """

    def __init__(self):
        self.samples: list[float] = []
        # wall seconds spent sampling, warm-up runs included
        self.spent_s = 0.0
        self._next = 0.0

    def sample(self) -> None:
        start = perf_counter()
        if start >= self._next:
            kernel()
            self.samples.append(kernel())
            end = perf_counter()
            self.spent_s += end - start
            self._next = end + INTERVAL_S
