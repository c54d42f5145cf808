"""Machine-speed factor: scales measured times to a reference machine speed.

The benchmark runs on shared virtual machines whose speed changes as
neighbours load the host: on the 2-vCPU KVM guest it was tuned on, the same
work took 180-290 ms from one second to the next, and the vCPU flips between
a fast and a slow state (about 1.6x apart) from one call to the next.  That
slows every kind of code alike, so the benchmark times a fixed kernel of its
own before the first call and after every call, outside the timed region,
and scales each call's time by

    factor = REFERENCE_KERNEL_MS / mean time of the two kernel runs around it.

Across six 12 s runs of ``ex1_linear`` this narrowed the range of
``us_per_item`` from 16% to 4% of the median (README.md, "Noise").  The
kernel mixes what the library spends its time on: interpreted scalar
arithmetic, ``math`` calls and ``numpy.random.Generator`` construction and
small draws.  It runs with the garbage collector off, so the heap the
library leaves behind does not change its time.  The unscaled wall times
are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

#: The unit of scaled times: a typical kernel time in ms on the reference
#: machine (x86-64 KVM guest, 2 vCPUs, Python 3.11, numpy 2.4), where the
#: kernel takes 2.9 ms in the fast state and 4.7 ms in the slow one.
REFERENCE_KERNEL_MS = 4.5
_ROUNDS = 200


def _kernel() -> float:
    s = 0.0
    for i in range(_ROUNDS):
        g = np.random.Generator(np.random.PCG64(i))
        s += math.exp(-abs(g.standard_normal())) + math.sqrt(i) + float(g.random(3).sum())
    return s


def kernel_ms() -> float:
    """Time one kernel run, in ms, with garbage collection paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        _kernel()
        return (time.perf_counter_ns() - t0) / 1e6
    finally:
        if enabled:
            gc.enable()


def call_factor(kernel_times_ms: list[float], call: int) -> float:
    """Scale factor for call ``call`` of a loop.

    ``kernel_times_ms[j]`` was timed just before call ``j`` and
    ``kernel_times_ms[j + 1]`` just after it.  The host flips between a fast
    and a slow state (kernel 2.9 vs 4.7 ms) from one call to the next, so
    the two adjacent kernel runs track a call better than a wider average.
    """
    before, after = kernel_times_ms[call], kernel_times_ms[call + 1]
    return 2.0 * REFERENCE_KERNEL_MS / (before + after)
