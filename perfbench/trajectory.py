"""Run the benchmark over several seeds and write one trajectory point.

Usage, from the checkout root::

    python3 perfbench/trajectory.py --label seed --seeds 1-10 \\
        --out perfbench/results/BENCH_seed.json

For every workload it makes one untraced run per seed, then one traced run
on the first seed.  It writes each run's metrics, and per end-to-end metric
the median, the quartiles and the spread ``(q3 - q1) / median`` as
``statistics.quantiles(values, n=4)`` gives them.  The load average before
and after the runs is recorded with them.  Exit code 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
        cwd=bootstrap.ROOT,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["exit_code"] = done.returncode
    result["seed"] = seed
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]

    seeds = parse_seeds(args.seeds)
    point = {
        "label": args.label,
        "run_seconds": seconds,
        "seeds": seeds,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "load_avg_before": os.getloadavg(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    ok = True
    for name in WORKLOADS:
        runs = [run(name, seed, seconds, 0) for seed in seeds]
        traced = run(name, seeds[0], seconds, 1)
        ok = ok and all(r["correct"] and r["exit_code"] == 0 for r in runs + [traced])
        summary = {
            metric: spread([r["metrics"][metric]["value"] for r in runs])
            for metric in runs[0]["metrics"]
        }
        point["workloads"][name] = {"end_to_end": summary, "runs": runs, "traced": traced}
        for metric, s in summary.items():
            print(f"{name:16} {metric:12} median {s['median']:12.6g}  spread {s['spread']:.4f}", flush=True)
    point["load_avg_after"] = os.getloadavg()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
