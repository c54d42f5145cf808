"""Regenerate ``reference.json``, the stored laws the output checks test against.

Usage (from the checkout root; takes a few minutes on one core)::

    python3 perfbench/make_reference.py

The references are drawn through the library API, not through the CLI, on a
master seed no benchmark call uses:

* ``ex1_linear``: Example 1 passage times (sinusoidal drift, line 0.5 - t);
* ``ex2_curvy``: Example 2 passage times at epsilon = 2^-30, fine enough
  that the curvy iteration's bias is far below the statistical error, plus
  the mean and variance of the truncated time ``min(tau, 1)``;
* ``neuron_adaptive``: spike counts per trial at I = 20, horizon 2.

Each entry stores the sample size, mean, unbiased variance and fourth
central moment, so a check can combine the reference's standard error with
its own.
"""

from __future__ import annotations

import json
import time

import bootstrap
from workloads import Moments

REFERENCE_SEED = 20_241_213
SIZES = {"ex1_linear": 200_000, "ex2_curvy": 300_000, "neuron_adaptive": 1_500}
#: Truncation point of the ex2_curvy truncated mean E[min(tau, TRUNCATE_AT)].
TRUNCATE_AT = 1.0


def _moments(values, how: str) -> dict:
    m = Moments()
    m.extend(values)
    return {"n": m.n, "mean": m.mean(), "var": m.var(), "m4": m.m4(), "how": how}


def main() -> None:
    bootstrap.require_source()
    from fptsim import example1_problem, example2_problem, sample_batch
    from fptsim.neuron import NeuronParams, simulate_trials

    ref = {"seed": REFERENCE_SEED}
    t0 = time.perf_counter()
    draws = sample_batch(example1_problem(), SIZES["ex1_linear"], REFERENCE_SEED)
    ref["ex1_linear"] = _moments([d.time for d in draws], "sample_batch(example1_problem())")
    draws = sample_batch(example2_problem(epsilon=2.0**-30), SIZES["ex2_curvy"], REFERENCE_SEED)
    times = [d.time for d in draws]
    ref["ex2_curvy"] = _moments(times, "sample_batch(example2_problem(epsilon=2**-30))")
    truncated = _moments([min(t, TRUNCATE_AT) for t in times], "")
    ref["ex2_curvy"]["truncated"] = {"at": TRUNCATE_AT, "mean": truncated["mean"], "var": truncated["var"]}
    trains = simulate_trials(NeuronParams(I=20.0), 2.0, SIZES["neuron_adaptive"], REFERENCE_SEED)
    ref["neuron_adaptive"] = _moments(
        [t.count for t in trains], "spike counts of simulate_trials(NeuronParams(I=20), horizon=2)"
    )
    ref["elapsed_s"] = round(time.perf_counter() - t0, 1)
    with open(bootstrap.ROOT / "perfbench" / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
