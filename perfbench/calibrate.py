"""Host-speed calibration: a fixed op that runs none of the program's code.

The shared host of a small VM runs everything 1.3-2x slower for stretches
of a second to minutes.  The calibration op is timed between the rounds of a
run; the median of those times over the run, over ``REFERENCE_S``, is the
run's host factor.  End-to-end times are divided by it and rates multiplied
by it, so a run that falls in a slow stretch reports what the same run
would have taken at the reference speed.  The op mixes the kinds of work the
program does: Fraction and mpmath arithmetic, a float loop, and dense
256x256 complex products.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np

#: Median calibration-op time in runs on a 2-core x86 VM (Python 3.11,
#: numpy 2.4, one BLAS thread).  Only ratios between runs matter; this
#: constant just keeps the reported numbers near plain seconds.
REFERENCE_S = 0.015

_A = np.random.default_rng(12345).standard_normal((256, 512)).view(np.complex128)


def calibration_op() -> float:
    acc = Fraction(0)
    for k in range(1, 240):
        acc += Fraction(k, k + 3) * Fraction(1, 2 * k + 1)
    with mp.workdps(30):
        x = mp.mpf(1)
        for k in range(1, 600):
            x = x * mp.mpf(k + 1) / mp.mpf(k) + 1
    s = 0.0
    for k in range(1, 5000):
        s += math.exp(-k * 1e-3) * k
    b = _A @ _A
    return float(acc) + float(x) + s + float(abs((b @ _A)[0, 0]))


def time_calibration(reps: int) -> list[float]:
    """Wall seconds of ``reps`` calibration ops."""
    out = []
    for _ in range(reps):
        start = time.perf_counter()
        calibration_op()
        out.append(time.perf_counter() - start)
    return out
