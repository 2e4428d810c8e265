"""Machine-speed calibration for the benchmark's timings.

The CPU speed a process sees on a shared host drifts.  On the 2-core
machine the figures in README.md come from, the same solves ran 1.5x
faster in one minute than a few minutes before, and a fixed kernel's time
varied 2x within a second.  That drift is common to the program and to any
fixed code, so a run times a fixed kernel at intervals between its
operations and scales its wall times by ``NOMINAL_S`` over the run's mean
kernel time: the times on a machine whose kernel takes ``NOMINAL_S``.  The
kernel imports nothing from framerisk and never changes, so a change to
the program moves the scaled times exactly as it moves the wall times.  It
mixes what the workloads do: scalar float arithmetic, ``math`` and
function calls in the interpreter, and ufuncs on small numpy arrays.
"""

from __future__ import annotations

import math
import time

import numpy as np

# About the kernel time on a quiet core of the machine the figures in
# README.md come from, so scaled times read close to wall times there.
NOMINAL_S = 0.020
REPEATS = 5


def _index(r: float, mu_r: float, var_r: float, mu_l: float, var_l: float) -> float:
    beta = (r * mu_r - mu_l) / math.sqrt(r * r * var_r + var_l)
    return 0.5 * math.erfc(beta / math.sqrt(2.0))


def _kernel() -> float:
    acc = 0.0
    for i in range(30000):
        acc += _index(0.5 + (i % 97) * 0.02, 1.22, 0.04, 1.3, 0.03)
    grid = np.linspace(0.1, 2.0, 64)
    for _ in range(1000):
        acc += float(np.maximum(grid * 0.3, np.sqrt(grid * grid * 0.04 + 0.03)).sum())
    return acc


def kernel_seconds() -> float:
    """Mean time of one run of the fixed kernel, in seconds."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        _kernel()
    return (time.perf_counter() - t0) / REPEATS
