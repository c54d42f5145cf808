"""Self-tests of the benchmark itself.

Usage, from the checkout root::

    python3 perfbench/selftest.py [--seed 7] [--seconds 60]

1. Determinism: for every workload, two fresh processes each make
   ``CALLS`` traced calls with the same seed; their counts (proposals,
   clock events, substream calls, line draws, stages, spikes, paths, ...)
   must be identical.  In each, every call's traced counts must match its
   payload and the span self times must add up exactly to ``cli.run_s``.
2. Trace coverage: one traced ``ex1_linear`` call with ``fptsim.rng.substream``
   put back unwrapped must be reported as a trace gap, which shows that the
   payload cross-check sees a call site the tracer misses.
3. Power of the ``ex2_curvy`` check: the workload is run for ``--seconds``
   with the library's default epsilon 2^-4 instead of the pinned 2^-20.  The
   pooled check against the epsilon = 2^-30 reference must fail there,
   which shows it can see the known coarse-epsilon bias.  The default 60 s
   pools about 140 000 draws; one 20 s benchmark run pools about a third of
   that, where the bias shows as z of -4 to -6 and is missed now and then.

Exit code 0 when all three hold, 1 otherwise, and 2 when the checkout holds
no ``src/fptsim``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import bootstrap
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120
#: Traced calls per determinism run.
CALLS = 2


def traced_counts(workload_name: str, seed: int) -> dict:
    """Counts of ``CALLS`` traced calls (runs in a child process)."""
    bootstrap.require_source()
    from run import run_loop, warm_up
    from spans import Tracer

    workload = WORKLOADS[workload_name]
    warm_up(workload, seed)
    tracer = Tracer()
    with tracer.installed():
        loop = run_loop(workload, seed, workload.new_check(), calls=CALLS, tracer=tracer)
    self_sum, run_total = tracer.self_time_balance()
    return {
        "counts": tracer.deterministic_counts(),
        "failed": loop.failed,
        "trace_gaps": loop.trace_gaps,
        "self_times_balance": self_sum == run_total,
    }


def check_determinism(seed: int) -> bool:
    ok = True
    for name in WORKLOADS:
        runs = []
        for _ in range(2):
            done = subprocess.run(
                [sys.executable, str(HERE / "selftest.py"), "--counts", name, str(seed)],
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
                check=True,
            )
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        same = runs[0]["counts"] == runs[1]["counts"]
        clean = all(r["failed"] == 0 and not r["trace_gaps"] and r["self_times_balance"] for r in runs)
        ok = ok and same and clean
        nonzero = {k: v for k, v in runs[0]["counts"].items() if v}
        print(f"determinism {name}: {'ok' if same and clean else 'FAIL'} {nonzero}")
        if not same:
            print(f"  second run: {runs[1]['counts']}")
        for gap in runs[0]["trace_gaps"] + runs[1]["trace_gaps"]:
            print(f"  trace gap: {gap}")
    return ok


def check_trace_coverage(seed: int) -> bool:
    bootstrap.require_source()
    from run import run_loop, warm_up
    from spans import Tracer

    from fptsim import rng

    workload = WORKLOADS["ex1_linear"]
    warm_up(workload, seed)
    tracer = Tracer()
    with tracer.installed():
        rng.substream = rng.substream.__wrapped__
        loop = run_loop(workload, seed, workload.new_check(), calls=1, tracer=tracer)
    caught = any("rng.substream_calls" in gap for gap in loop.trace_gaps)
    print(f"trace coverage: an unwrapped rng.substream is {'caught' if caught else 'MISSED'}")
    for gap in loop.trace_gaps:
        print(f"  {gap}")
    return caught


def check_epsilon_power(seed: int, seconds: float) -> bool:
    bootstrap.require_source()
    from run import run_loop

    base = WORKLOADS["ex2_curvy"]
    coarse = dataclasses.replace(base, config=dict(base.config, epsilon=2.0**-4))
    check = coarse.new_check()
    loop = run_loop(coarse, seed, check, seconds=seconds)
    passed, report = check.verdict()
    print(f"ex2_curvy check at epsilon=2^-4 over {loop.attempted} calls: "
          f"{'passed (the check missed the bias)' if passed else 'failed, as it must'}")
    for line in report:
        print(f"  {line}")
    return not passed and loop.failed == 0


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "--counts":
        print(json.dumps(traced_counts(sys.argv[2], int(sys.argv[3]))))
        return 0
    parser = argparse.ArgumentParser(description="Self-tests of the fptsim benchmark.")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args()
    bootstrap.require_source()
    ok = check_determinism(args.seed)
    ok = check_trace_coverage(args.seed) and ok
    ok = check_epsilon_power(args.seed, args.seconds) and ok
    print("selftest:", "ok" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
