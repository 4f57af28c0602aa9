"""Machine-speed control: fixed kernels timed next to the program's items.

The 2-core host the benchmark was built on changes speed by up to 2x for
tens of seconds at a time, as other tenants load the cores it shares; the
same search took 0.74 s in one minute and 1.6 s in the next. No estimator
inside a run of half a minute removes that. So the worker times a fixed
kernel, which is the benchmark's own code and never changes with the
program, between items, and scales each pass's times by the kernel's
``NOMINAL_S`` over its median time in that pass: a time then reads as it
would at the speed the kernel had when ``NOMINAL_S`` was fixed.

Two kernels serve as controls; each workload names the one closest to
where its time goes. ``stream`` (elementwise int64 products over arrays of
100,000 entries) serves the numpy-bound scans and batched determinants of
families, extend and oracle, and set-up. ``interpreter`` (pure-Python
integer elimination and many small numpy calls) serves search, whose time
is pure-Python branch and bound. A kernel that swings more than its
workload adds noise when the host is calm: scaled by the stream kernel,
search ``items_per_s`` spread 0.134 over ten seeds against 0.099 unscaled,
while across seven sets of five to ten runs the interpreter kernel kept it
between 0.040 and 0.096 (unscaled, up to 0.153 in the same runs and 0.37 in
one earlier set).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel times on the reference machine (2-core Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6) while the benchmark was tuned.
NOMINAL_S = {"stream": 0.0028, "interpreter": 0.0055}

_rng = np.random.default_rng(0)
_STREAM = _rng.integers(-3, 4, size=(4, 100_000)).astype(np.int64)
_SMALL = _rng.integers(-3, 4, size=64).astype(np.int64)
_SMALL_IDX = _rng.integers(0, 64, size=32)
_MATRIX = [[(i * 7 + j * 3) % 11 - 5 + 13 * (i == j) for j in range(6)] for i in range(6)]


def _stream() -> None:
    for _ in range(8):
        acc = _STREAM[0] * _STREAM[1]
        acc -= _STREAM[2] * _STREAM[3]
        np.abs(acc).max()


def _interpreter() -> None:
    for _ in range(250):
        a = [row[:] for row in _MATRIX]
        prev = 1
        for k in range(5):
            p = a[k][k]
            for i in range(k + 1, 6):
                aik, ai, ak = a[i][k], a[i], a[k]
                for j in range(k + 1, 6):
                    ai[j] = (ai[j] * p - aik * ak[j]) // prev
            prev = p
    for _ in range(500):
        acc = _SMALL[_SMALL_IDX] * _SMALL[_SMALL_IDX]
        acc -= _SMALL[_SMALL_IDX]
        acc.any()


_KERNELS = {"stream": _stream, "interpreter": _interpreter}


def kernel_seconds(kernel: str) -> float:
    """Time one run of a fixed kernel."""
    t0 = time.perf_counter()
    _KERNELS[kernel]()
    return time.perf_counter() - t0


def factor(samples, kernel: str) -> float:
    """Scale that brings times measured next to these samples to nominal speed."""
    return NOMINAL_S[kernel] / statistics.median(samples)
