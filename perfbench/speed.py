"""The machine's speed, sampled during a pass.

On a shared host the same pass takes from 0.8x to 1.2x its usual CPU time,
in stretches lasting from seconds to minutes, as other tenants load the
machine. ``Probe`` measures that speed while the pass runs: every
INTERVAL_S a SIGALRM handler runs ``kernel``, a fixed piece of pure-Python,
small-NumPy and ``Fraction`` work that shares no code with ginshift, and
times it with the wall clock (the process CPU clock ticks in 4 ms steps
while an interval timer on it is armed, too coarse for a 10 ms sample).
``scale()`` is REFERENCE_S over the kernel's typical time in the pass, so
``cpu_s * scale()`` is the pass's CPU time at the reference speed. A slower
program reads slower; a slower machine does not.

The handler's own time is counted in ``spent_s`` for the caller to take
out of the pass's time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

#: time between two samples; each sample costs about 10 ms, 7% of it
INTERVAL_S = 0.15
#: samples taken after the body if it ran too briefly for as many
MIN_SAMPLES = 8
#: the kernel's time at the reference speed: about its median during
#: passes on the machine the first numbers were taken on (2-core x86-64
#: VM, Python 3.11.7, NumPy 2.4.6)
REFERENCE_S = 0.0100
_PRIME = 31991


def kernel() -> int:
    """Fixed work in the mix ginshift does: tuple keys, dict updates, a
    sort, integer arithmetic mod p, elimination on a small int64 array mod
    p, and exact elimination over ``Fraction``."""
    table: dict[tuple, int] = {}
    x = 12345
    for i in range(3000):
        x = (x * 1103515245 + 12345) % 2147483648
        key = (x % 7, (x >> 3) % 11, (x >> 7) % 5, i % 13)
        table[key] = table.get(key, 0) + x % _PRIME
    ranked = sorted(table.items(), key=lambda kv: (kv[0][::-1], kv[1]))
    acc = sum(v for _key, v in ranked[::3]) % _PRIME
    a = np.arange(8 * 12, dtype=np.int64).reshape(8, 12) * 7919 % _PRIME
    for r in range(8):
        rows = np.nonzero(a[:, r])[0]
        a[rows] = (a[rows] - np.outer(a[rows, r], a[r])) % _PRIME
    q = [[Fraction((7 * i + 3 * j) % 11 + 1, j + 1) for j in range(9)]
         for i in range(7)]
    for r in range(7):
        pivot = q[r][r]
        q[r] = [v / pivot for v in q[r]]
        for i in range(7):
            if i != r and q[i][r]:
                f = q[i][r]
                q[i] = [v - f * w for v, w in zip(q[i], q[r])]
    return acc + int(a.sum() % _PRIME) + q[0][-1].denominator % _PRIME


class Probe:
    """Context manager sampling ``kernel`` times while its body runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._busy = False
        self._previous = None

    def _sample(self) -> float:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        return took

    def _tick(self, _signum, _frame) -> None:
        if self._busy:  # a tick that arrives inside a sample is dropped
            return
        self._busy = True
        self.spent_s += self._sample()
        self._busy = False

    def __enter__(self) -> "Probe":
        for _ in range(3):  # its own code paths, not ginshift's
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_SAMPLES:  # a body too brief to sample
            self._sample()

    def typical_s(self) -> float:
        """The mean of the middle half of the samples (the interquartile
        mean): steadier than the median, and a stray slow sample cannot
        move it."""
        ranked = sorted(self.samples)
        quarter = len(ranked) // 4
        return statistics.fmean(ranked[quarter:len(ranked) - quarter])

    def scale(self) -> float:
        return REFERENCE_S / self.typical_s()


def scale_now() -> float:
    """``Probe.scale`` from MIN_SAMPLES samples taken now, for work too
    brief to sample while it runs (the set-up)."""
    probe = Probe()
    with probe:
        pass
    return probe.scale()
