"""Machine-speed calibration for the end-to-end times.

On a shared 2-vCPU x86_64 VM the same sweep runs up to 1.6x slower for
seconds to minutes at a time, and medians of raw sweep times from runs of
identical code differed by 20-45% (quartile distance over median, five
seeds).  A fixed piece of reference work follows the same slowdowns.  The
benchmark times it between the temperature points of each sweep and around
it, and scales the sweep's times by REFERENCE_S over the mean reference
time: the figures are seconds of a machine on which the reference work
takes REFERENCE_S.  With this scaling the spread fell to 2-8% over ten
seeds.
The raw figures are kept in the run record.

The reference work mixes what the program spends its time on: interpreter
loops, numpy ufuncs over a wide vector, and small LAPACK calls.  It belongs
to the benchmark, not to the program, so no change to the program moves it.
"""

from time import perf_counter

import numpy as np

REFERENCE_S = 0.0035

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((40, 40))
_VECTOR = _RNG.random(20000) + 0.5


def reference_work():
    total = 0
    for i in range(20000):
        total += i * i
    for _ in range(10):
        total += float(np.sum(1.0 / np.expm1(_VECTOR / 3.0)))
    for _ in range(3):
        total += float(np.linalg.eigvals(_MATRIX).real.sum())
    return total


def time_reference_work():
    start = perf_counter()
    reference_work()
    return perf_counter() - start
