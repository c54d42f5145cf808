"""fptsim benchmark: microseconds per result on four ``fpt`` workloads.

Usage, from the checkout root::

    python3 perfbench/run.py --workload ex1_linear --seed 1 --seconds 20 --trace 0

Each run is one fresh, single-threaded process.  It drives one ``fpt``
experiment in-process through ``fptsim.cli.resolve_config`` and
``run_experiment`` (the path of ``fpt <experiment>`` minus interpreter
start) in a closed loop: one untimed warm-up call, then calls one after the
other until ``--seconds`` have passed, each call with its own seed derived
from ``--seed``.  Every call's artifacts are checked outside the timed
region, and the pooled law-level check runs at the end.  Call times are
scaled to a reference machine speed by ``speed.py``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced and reports the per-layer metrics (see
``spans.py``), writing the spans to ``.bench_out/<workload>/spans.npz``.
It stops with exit code 1 and no result if a traced call's span counts
disagree with its payload, because the layer split would then be wrong.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when a check failed and 2 when the checkout holds
no ``src/fptsim``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import bootstrap
import speed
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 9
SETUP_TIMEOUT_S = 20
E2E_UNITS = {
    "us_per_item": "us",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def call_seed(workload: str, seed: int, index: int | str) -> int:
    """Seed of one call: a 63-bit hash of (workload, benchmark seed, call index)."""
    digest = hashlib.blake2b(f"{workload}:{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def measure_setup(workload: Workload) -> tuple[float, float]:
    """Median set-up time over fresh processes (import, config, problem build).

    Returns the median of the probes' scaled times and the median of their
    raw times.  Each probe scales by a kernel timed in its own process
    (``setup_probe.py``): a kernel run in this process between probes did
    not track the probes' import time.
    """
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        a, b = map(float, done.stdout.split())
        scaled.append(a)
        raw.append(b)
    return statistics.median(scaled), statistics.median(raw)


@dataclass
class Loop:
    """Outcome of one closed loop of calls.

    ``kernel_ms[j]`` is the speed kernel timed just before successful call
    ``j`` and ``kernel_ms[j + 1]`` the one just after it (``speed.py``).
    """

    raw_ns: list[int] = field(default_factory=list)
    kernel_ms: list[float] = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)
    #: Traced calls whose span counts disagree with their payload (``spans.py``).
    trace_gaps: list[str] = field(default_factory=list)

    @property
    def latencies_ms(self) -> list[float]:
        """Each call's wall time scaled to the reference machine speed."""
        return [ns / 1e6 * speed.call_factor(self.kernel_ms, j) for j, ns in enumerate(self.raw_ns)]

    @property
    def us_per_item(self) -> float:
        return math.fsum(self.latencies_ms) * 1e3 / self.items if self.items else 0.0

    @property
    def raw_us_per_item(self) -> float:
        return sum(self.raw_ns) / 1e3 / self.items if self.items else 0.0


def run_loop(workload: Workload, seed: int, check, *, seconds=None, calls=None, tracer=None,
             first_index: int = 0) -> Loop:
    """Call the experiment until ``seconds`` have passed or ``calls`` were made."""
    from fptsim import cli
    from fptsim.errors import FptsimError

    out = bootstrap.OUT / workload.name
    loop = Loop()
    started = time.perf_counter()
    index = first_index
    loop.kernel_ms.append(speed.kernel_ms())
    while (loop.attempted < calls) if calls is not None else (time.perf_counter() - started < seconds):
        cfg = cli.resolve_config(dict(workload.config, out=str(out), seed=call_seed(workload.name, seed, index)))
        if tracer is not None:
            tracer.begin_call(index)
        index += 1
        loop.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            payload = cli.run_experiment(cfg)
        except FptsimError as exc:
            loop.failed += 1
            loop.problems.append(f"call {index - 1}: {type(exc).__name__}: {exc}")
            continue
        loop.raw_ns.append(time.perf_counter_ns() - t0)
        if tracer is not None:
            loop.trace_gaps.extend(f"call {index - 1}: {g}" for g in tracer.end_call(payload))
        loop.kernel_ms.append(speed.kernel_ms())
        loop.items += workload.items(payload)
        loop.bytes_written += sum(
            (out / name).stat().st_size for name in payload["files"] + ["summary.json"]
        )
        found = check.add(payload, out)
        if found:
            loop.failed += 1
            loop.problems.extend(f"call {index - 1}: {p}" for p in found)
    return loop


def warm_up(workload: Workload, seed: int) -> None:
    from fptsim import cli

    out = bootstrap.OUT / workload.name
    cli.run_experiment(cli.resolve_config(dict(workload.config, out=str(out),
                                              seed=call_seed(workload.name, seed, "warm-up"))))


def end_to_end(loop: Loop, setup_s: float) -> dict[str, float]:
    """End-to-end metrics; a loop without a successful call reads 0 (and fails its check)."""
    ms = loop.latencies_ms or [0.0]
    deciles = statistics.quantiles(ms, n=10) if len(ms) > 1 else ms * 9
    return {
        "us_per_item": loop.us_per_item,
        "call_ms_p50": statistics.median(ms),
        "call_ms_p90": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap.require_source()
    workload = WORKLOADS[args.workload]
    setup_s, raw_setup_s = measure_setup(workload) if not args.trace else (0.0, 0.0)

    import fptsim
    from spans import LAYER_UNITS, Tracer

    bootstrap.check_imported(fptsim)
    check = workload.new_check()
    warm_up(workload, args.seed)

    if not args.trace:
        loop = run_loop(workload, args.seed, check, seconds=args.seconds)
        metrics, units = end_to_end(loop, setup_s), E2E_UNITS
        loops = [loop]
    else:
        half = args.seconds / 2.0
        plain = run_loop(workload, args.seed, check, seconds=half)
        tracer = Tracer()
        with tracer.installed():
            traced = run_loop(workload, args.seed, check, seconds=half, tracer=tracer,
                              first_index=plain.attempted)
        if traced.trace_gaps:
            sys.exit("perfbench: the trace missed calls, so its layer split is wrong:\n  "
                     + "\n  ".join(traced.trace_gaps[:10]))
        self_sum, run_total = tracer.self_time_balance()
        if self_sum != run_total:
            sys.exit(f"perfbench: self times add up to {self_sum} ns, cli.run_s to {run_total} ns")
        tracer.write(bootstrap.OUT / workload.name / "spans.npz")
        calls = len(traced.raw_ns)
        overhead = traced.us_per_item / plain.us_per_item - 1.0 if plain.us_per_item else 0.0
        metrics, units = tracer.layer_metrics(calls, traced.bytes_written, overhead), LAYER_UNITS
        loops = [plain, traced]
        print(f"{workload.name}: {calls} traced calls, {len(tracer.start)} spans; span counts match "
              f"every payload; self times add up to cli.run_s ({run_total / 1e9:.6f} s)")

    attempted = sum(x.attempted for x in loops)
    failed = sum(x.failed for x in loops)
    law_ok, report = check.verdict()
    correct = law_ok and failed == 0
    if not law_ok:
        failed = attempted
    calls = sum(len(x.raw_ns) for x in loops)
    items = sum(x.items for x in loops)
    print(f"{workload.name}: seed {args.seed}, {calls} timed calls, {items} {workload.item_name}s, "
          f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    for x in loops:
        print(f"  speed: scaled by {x.us_per_item / (x.raw_us_per_item or 1.0):.4f}, unscaled "
              f"{x.raw_us_per_item:.3f} us per {workload.item_name} over {len(x.raw_ns)} calls")
    if not args.trace:
        print(f"  speed: setup_s median of {SETUP_PROBES} probes, unscaled {raw_setup_s:.4f} s")
    for line in report:
        print(f"  check: {line}")
    for problem in [p for x in loops for p in x.problems][:20]:
        print(f"  problem: {problem}")
    for name, value in metrics.items():
        print(f"  {name:<24} {value:14.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
