"""The four benchmark workloads and their output checks.

Each workload is one ``fpt`` experiment config.  A call runs it once through
``fptsim.cli.run_experiment`` with its own seed; the benchmark reads the
call's artifacts back and feeds them to the workload's check.  A check has
two parts:

* ``add(payload, out)`` inspects one call's artifacts and returns the list of
  problems found (empty when the call is fine);
* ``verdict()`` runs the law-level test on everything pooled so far and
  returns ``(ok, report_lines)``.

Law-level tests compare pooled statistics with closed forms or with the
stored references in ``reference.json`` (made by ``make_reference.py``), so
they hold for any seed.  The z-score limit is 4: a correct program fails a
single test with probability about 6e-5.

This module does not import ``fptsim`` at import time; the set-up probe
times that import.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
Z_LIMIT = 4.0

#: Per-call sizes, chosen so one call takes roughly 50-100 ms on a 2-CPU
#: x86-64 box (see README.md).
EX1_N = 800
EX2_N = 150
EX2_EPSILON = 2.0**-20
EULER_N = 100
EULER_DELTAS = (2.0**-4, 2.0**-6, 2.0**-8)


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def _z(diff: float, se: float) -> float:
    return diff / se if se > 0.0 else (0.0 if diff == 0.0 else math.inf)


class Moments:
    """Streaming count, mean, and second and fourth central moments.

    Power sums of ``x - shift`` (the first value seen) keep the memory use
    flat however many values a run pools, so pooling does not move
    ``peak_rss_mb``.
    """

    def __init__(self) -> None:
        self.n = 0
        self.shift: float | None = None
        self.sums = [0.0] * 5

    def extend(self, xs) -> None:
        for x in xs:
            if self.shift is None:
                self.shift = x
            d = x - self.shift
            self.n += 1
            p = 1.0
            for k in range(1, 5):
                p *= d
                self.sums[k] += p

    def mean(self) -> float:
        return self.shift + self.sums[1] / self.n

    def _raw(self) -> tuple[float, float, float, float]:
        return tuple(s / self.n for s in self.sums[1:])

    def m2(self) -> float:
        """Second central moment (biased)."""
        m1, m2, _, _ = self._raw()
        return m2 - m1 * m1

    def m4(self) -> float:
        """Fourth central moment."""
        m1, m2, m3, m4 = self._raw()
        return m4 - 4 * m1 * m3 + 6 * m1 * m1 * m2 - 3 * m1**4

    def var(self) -> float:
        return self.m2() * self.n / (self.n - 1)

    def se_mean(self) -> float:
        return math.sqrt(self.var() / self.n)

    def se_var(self) -> float:
        return math.sqrt(max(self.m4() - self.m2() ** 2, 0.0) / self.n)


def _ref_se_mean(ref: dict) -> float:
    return math.sqrt(ref["var"] / ref["n"])


def _ref_se_var(ref: dict) -> float:
    return math.sqrt(max(ref["m4"] - ref["var"] ** 2, 0.0) / ref["n"])


def _read_samples(path: Path) -> list[tuple[float, bool, int]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["index", "time", "finite", "proposals", "clock_events"]:
        raise ValueError(f"unexpected samples.csv header {rows[0]}")
    return [(float(r[1]), r[2] == "true", int(r[3])) for r in rows[1:]]


class PassageCheck:
    """Shared per-call checks for experiments that write ``samples.csv``."""

    def __init__(self) -> None:
        self.times = Moments()
        self.proposals = Moments()

    def add(self, payload: dict, out: Path) -> list[str]:
        rows = _read_samples(out / "samples.csv")
        problems = []
        if len(rows) != payload["n"]:
            problems.append(f"samples.csv has {len(rows)} rows, summary says n={payload['n']}")
        if not all(finite and 0.0 <= t < math.inf for t, finite, _ in rows):
            problems.append("an exact draw is censored or negative")
        if sum(p for _, _, p in rows) != payload["total_proposals"]:
            problems.append("proposal total differs between samples.csv and summary.json")
        if not problems:
            self.pool(rows)
        return problems

    def pool(self, rows: list[tuple[float, bool, int]]) -> None:
        self.times.extend(t for t, _, _ in rows)
        self.proposals.extend(p for _, _, p in rows)


class Ex1Check(PassageCheck):
    """Mean proposals against ``exp(A(b) - A(x0))`` and mean time against the reference."""

    K, b, x0 = 1.6, 0.5, 0.0

    def __init__(self) -> None:
        super().__init__()
        self.ref = load_reference()["ex1_linear"]
        # drift antiderivative A(x) = K x - cos x of the sinusoidal drift
        A = lambda x: self.K * x - math.cos(x)
        self.expected_proposals = math.exp(A(self.b) - A(self.x0))

    def add(self, payload: dict, out: Path) -> list[str]:
        problems = super().add(payload, out)
        if not math.isclose(payload["expected_mean_proposals"], self.expected_proposals, rel_tol=1e-12):
            problems.append(
                f"summary expects {payload['expected_mean_proposals']} proposals per draw, "
                f"closed form gives {self.expected_proposals}"
            )
        return problems

    def verdict(self) -> tuple[bool, list[str]]:
        if self.times.n < 2:
            return False, ["no draws pooled"]
        z_prop = _z(self.proposals.mean() - self.expected_proposals, self.proposals.se_mean())
        ref = self.ref
        z_time = _z(self.times.mean() - ref["mean"], math.hypot(self.times.se_mean(), _ref_se_mean(ref)))
        ok = abs(z_prop) <= Z_LIMIT and abs(z_time) <= Z_LIMIT
        return ok, [
            f"pooled draws {self.times.n}",
            f"mean proposals {self.proposals.mean():.5f} vs exp(A(b)-A(x0)) "
            f"{self.expected_proposals:.5f}: z={z_prop:+.2f}",
            f"mean time {self.times.mean():.5f} vs reference {ref['mean']:.5f}: z={z_time:+.2f}",
        ]


class Ex2Check(PassageCheck):
    """Passage-time laws against the epsilon=2^-30 reference.

    Tests the mean and variance, plus the truncated mean ``E[min(tau, 1)]``.
    The law's heavy right tail (kurtosis near 80) inflates the standard error
    of the mean and variance; the truncated mean is what gives one run's pool
    the power to see the coarse-epsilon bias (``selftest.py`` shows it).
    """

    def __init__(self) -> None:
        super().__init__()
        self.ref = load_reference()["ex2_curvy"]
        self.truncated = Moments()

    def pool(self, rows: list[tuple[float, bool, int]]) -> None:
        super().pool(rows)
        at = self.ref["truncated"]["at"]
        self.truncated.extend(min(t, at) for t, _, _ in rows)

    def verdict(self) -> tuple[bool, list[str]]:
        if self.times.n < 2:
            return False, ["no draws pooled"]
        ref, t, tr = self.ref, self.times, self.truncated
        rtr = ref["truncated"]
        z_mean = _z(t.mean() - ref["mean"], math.hypot(t.se_mean(), _ref_se_mean(ref)))
        z_var = _z(t.var() - ref["var"], math.hypot(t.se_var(), _ref_se_var(ref)))
        z_tr = _z(tr.mean() - rtr["mean"], math.hypot(tr.se_mean(), math.sqrt(rtr["var"] / ref["n"])))
        ok = max(abs(z_mean), abs(z_var), abs(z_tr)) <= Z_LIMIT
        return ok, [
            f"pooled draws {t.n}",
            f"mean time {t.mean():.5f} vs reference {ref['mean']:.5f}: z={z_mean:+.2f}",
            f"variance {t.var():.5f} vs reference {ref['var']:.5f}: z={z_var:+.2f}",
            f"mean of min(time, {rtr['at']:g}) {tr.mean():.5f} vs reference {rtr['mean']:.5f}: z={z_tr:+.2f}",
        ]


class NeuronCheck:
    """Spike-count window against the reference and the threshold-jump identity.

    After a spike at ``t`` the threshold must sit exactly ``delta/tau1`` above
    its pre-spike level ``theta0 + (theta_plus - theta0) exp(-(t - s)/tau1)``;
    every written spike train is replayed through the library's threshold
    state to confirm it.
    """

    def __init__(self) -> None:
        self.ref = load_reference()["neuron_adaptive"]
        self.counts = Moments()

    def add(self, payload: dict, out: Path) -> list[str]:
        from fptsim.neuron import NeuronParams, apply_spike, initial_state, threshold_value

        with open(out / "spikes.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        trains: dict[int, list[float]] = {}
        for trial, _, t in rows:
            trains.setdefault(int(trial), []).append(float(t))
        cfg = payload["config"]
        counts = [len(trains.get(i, [])) for i in range(cfg["n"])]
        problems = []
        if counts != payload["counts"]:
            problems.append(f"spikes.csv counts {counts} differ from summary counts {payload['counts']}")
        params = NeuronParams(I=cfg["current"])
        jump = params.delta / params.tau1
        for times in trains.values():
            ordered = all(a < b for a, b in zip(times, times[1:]))
            if not (ordered and 0.0 <= times[0] and times[-1] < cfg["horizon"]):
                problems.append(f"spike times not increasing inside [0, {cfg['horizon']})")
                break
            state = initial_state(params)
            for t in times:
                decay = math.exp(-(t - state.last_spike) / params.tau1)
                before = params.theta0 + (state.theta_plus - params.theta0) * decay
                if not math.isclose(threshold_value(state, params, t), before, rel_tol=1e-12):
                    problems.append(f"threshold level at spike t={t} is off")
                state = apply_spike(state, params, t)
                if not math.isclose(state.theta_plus - before, jump, rel_tol=1e-9):
                    problems.append(f"threshold jump at t={t} is {state.theta_plus - before}, not {jump}")
        if not problems:
            self.counts.extend(counts)
        return problems

    def verdict(self) -> tuple[bool, list[str]]:
        if self.counts.n < 2:
            return False, ["fewer than two trials pooled"]
        ref, c = self.ref, self.counts
        se = math.hypot(c.se_mean(), _ref_se_mean(ref))
        lo, hi = ref["mean"] - Z_LIMIT * se, ref["mean"] + Z_LIMIT * se
        ok = lo <= c.mean() <= hi
        return ok, [
            f"pooled trials {c.n}",
            f"mean spike count {c.mean():.4f}, window [{lo:.4f}, {hi:.4f}] "
            f"around reference {ref['mean']:.4f}",
        ]


class EulerCheck:
    """Per grid width: plain Euler overshoots the exact time, the bridge test helps.

    The pooled first-moment bias of plain Euler must be positive, and the
    improved scheme's bias must not exceed it in size, so an improved scheme
    that fires too early (a large negative bias) fails as well.
    """

    def __init__(self) -> None:
        self.bias: dict[tuple[float, str], list[float]] = {}
        self.exact = PassageCheck()

    def add(self, payload: dict, out: Path) -> list[str]:
        problems = self.exact.add(payload, out)
        rows = payload["comparison"]
        cells = {(r["delta"], r["method"]) for r in rows}
        expected = {(d, m) for d in payload["config"]["deltas"] for m in ("euler", "improved_euler")}
        if cells != expected:
            problems.append(f"comparison cells {sorted(cells)} differ from {sorted(expected)}")
        if not all(math.isfinite(r["bias1"]) for r in rows):
            problems.append("a comparison row has a non-finite bias")
        if not problems:
            for r in rows:
                self.bias.setdefault((r["delta"], r["method"]), []).append(r["bias1"])
        return problems

    def verdict(self) -> tuple[bool, list[str]]:
        if not self.bias:
            return False, ["no comparison rows pooled"]
        ok = True
        lines = [f"pooled calls {len(next(iter(self.bias.values())))}"]
        for delta in sorted({d for d, _ in self.bias}, reverse=True):
            plain = math.fsum(self.bias[delta, "euler"]) / len(self.bias[delta, "euler"])
            improved = math.fsum(self.bias[delta, "improved_euler"]) / len(self.bias[delta, "improved_euler"])
            cell_ok = plain > 0.0 and abs(improved) <= plain
            ok = ok and cell_ok
            lines.append(
                f"delta={delta:g}: mean bias euler {plain:+.5f}, improved {improved:+.5f}"
                f" {'ok' if cell_ok else 'FAIL'}"
            )
        return ok, lines


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    items: Callable[[dict], int]
    new_check: Callable[[], object]
    item_name: str


def _draws(payload: dict) -> int:
    return payload["n"]


def _spikes(payload: dict) -> int:
    return sum(payload["counts"])


def _passage_times(payload: dict) -> int:
    # exact reference draws plus one grid path per sample and comparison cell
    return payload["n"] * (1 + len(payload["comparison"]))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ex1_linear", {"experiment": "example1", "n": EX1_N}, _draws, Ex1Check, "draw"),
        Workload(
            "ex2_curvy",
            {"experiment": "example2", "n": EX2_N, "epsilon": EX2_EPSILON},
            _draws,
            Ex2Check,
            "draw",
        ),
        Workload(
            "neuron_adaptive",
            {"experiment": "neuron", "trials": 1, "current": 20.0, "horizon": 2.0},
            _spikes,
            NeuronCheck,
            "spike",
        ),
        Workload(
            "euler_ladder",
            {"experiment": "benchmark", "n": EULER_N, "deltas": list(EULER_DELTAS), "horizon": 8.0},
            _passage_times,
            EulerCheck,
            "passage time",
        ),
    )
}
