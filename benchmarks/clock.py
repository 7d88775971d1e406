"""Item times scaled to a reference machine speed.

Benchmarks here run on shared machines: other tenants slow whole stretches
of a run by up to a half, and a run can stay slow from start to end.  A
fixed piece of reference work, timed between items, tracks the current
speed; the times measured between two timings are multiplied by the
reference time over the mean of the two.  In-process workloads use a
pure-Python kernel, which is interpreter-bound like the library code, so the
scaled times hold still while the machine's speed moves.  Scaled times read
as the time the work takes when the reference work takes its reference time.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The kernel's time on an idle core of a 2-vCPU x86-64 VM, Python 3.11.7.
REFERENCE_S = 1.25e-3
# Item time between two kernel timings.
CALIBRATE_EVERY_S = 0.1


def kernel() -> Fraction:
    """Fraction comparisons, minima and sums, like the library's inner loops."""
    grades = [Fraction(i % 11, 10) for i in range(24)]
    best = Fraction(0)
    for a in grades:
        for b in grades:
            v = min(a, b, Fraction(1, 2))
            if v > best and a + b <= 1:
                best = v
    return best


def kernel_seconds() -> float:
    """Fastest of three kernel runs."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class Clock:
    """Scale factors for consecutive stretches of measured time.

    `probe` times the reference work and `reference` is its time at the
    reference speed; `every` is the item time between two probes.
    """

    def __init__(self, probe=kernel_seconds, reference=REFERENCE_S, every=CALIBRATE_EVERY_S):
        self.probe = probe
        self.reference = reference
        self.every = every
        self.last = probe()

    def factor(self) -> float:
        """Factor for the times measured since the previous call."""
        now = self.probe()
        factor = self.reference / ((self.last + now) / 2)
        self.last = now
        return factor
