"""Time one cold set-up of a workload and print it in seconds.

Usage: ``python3 perfbench/setup_probe.py <workload>``.  ``run.py`` starts
this several times per run in fresh processes.  The clock covers
``import fptsim``, ``fptsim.cli.resolve_config`` and the problem build
(``fptsim.problems.example1_problem`` / ``example2_problem``; the neuron
experiment builds its stage problems per call, so it has no build here).
Interpreter start is not included.

Set-up is mostly interpreted import work, and it slows down with the host
just as the calls do (``speed.py``): the same set-up took 0.43-0.85 s within
five minutes.  So the probe also times a small stdlib kernel of the same kind
of work (unmarshalling code, interpreted loops, building a dict) three times
just before the set-up and three times just after it, with the garbage
collector paused, and prints two numbers: the set-up time scaled by
``REFERENCE_KERNEL_MS / mean kernel time``, then the raw set-up time.  Over
126 probes in 14 groups of 9, the spread of the group medians was 0.18 raw
and 0.05 scaled, and the raw medians drifted from 0.73 s to 0.58 s while the
scaled ones stayed within 11% of each other.  The kernel uses no numpy,
because the numpy import is part of the set-up.
"""

from __future__ import annotations

import gc
import marshal
import sys
import time

import bootstrap
from workloads import WORKLOADS

#: A typical kernel time in ms on the reference machine (x86-64 KVM guest,
#: 2 vCPUs, Python 3.11); the unit of the scaled set-up time.
REFERENCE_KERNEL_MS = 13.0
_KERNEL_RUNS = 3
_CODE = marshal.dumps(compile(
    "\n".join(f"def f{i}(x, y=1):\n    return [x + {i} * y for _ in range(3)]\n" for i in range(400)),
    "kernel", "exec",
))


def kernel_ms() -> float:
    """Time one kernel run, in ms, with garbage collection paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        for _ in range(8):
            marshal.loads(_CODE)
        s = 0
        for i in range(100_000):
            s += i * i % 7
        {str(i): i for i in range(5000)}
        return (time.perf_counter_ns() - t0) / 1e6
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    bootstrap.require_source()
    kernel = [kernel_ms() for _ in range(_KERNEL_RUNS)]
    t0 = time.perf_counter()
    import fptsim
    from fptsim import cli, problems

    cfg = cli.resolve_config(dict(workload.config, out=str(bootstrap.OUT / workload.name)))
    if cfg.experiment in ("example1", "benchmark"):
        problems.example1_problem(K=cfg.K, a=cfg.a, b=cfg.b, x0=cfg.x0, max_proposals=cfg.max_proposals)
    elif cfg.experiment == "example2":
        problems.example2_problem(
            K=cfg.K, a=cfg.a, b=cfg.b, x0=cfg.x0, epsilon=cfg.epsilon, max_proposals=cfg.max_proposals
        )
    elapsed = time.perf_counter() - t0
    kernel += [kernel_ms() for _ in range(_KERNEL_RUNS)]
    bootstrap.check_imported(fptsim)
    scaled = elapsed * REFERENCE_KERNEL_MS * len(kernel) / sum(kernel)
    print(repr(scaled), repr(elapsed))


if __name__ == "__main__":
    main()
