"""Outside-in tracing: spans around public fptsim functions.

The tracer replaces module attributes of the library with timing wrappers
for the length of a ``with tracer.installed():`` block.  It patches each name
in the module that *calls* it (``fptsim.cli.sample_batch``, not
``fptsim.exact.sample_batch``), because that is where the caller looks the
name up at call time, and also every other ``fptsim`` module attribute bound
to the same function (``fptsim.baselines.substream`` is a copy of
``fptsim.rng.substream`` made by ``from .rng import substream``).  The
library itself is not changed.

A span is ``(name, start_ns, end_ns, parent span, call id)``.  Spans are kept
in flat integer arrays and written once, when the traced run ends.  A span's
self time is its duration minus the durations of its direct children; the
wrapped calls nest strictly, so the self times of all spans add up exactly
to the duration of the root ``cli.run_experiment`` spans unless a wrapped
function ran outside ``run_experiment``.

That balance cannot see a call site the tracer does not wrap: such calls
just go missing.  So after every traced call ``end_call`` compares the
span and hook counts of that call with what the call's payload says it did
(draws, proposals, clock events, spikes, trials, grid paths) and reports
every mismatch.

Counts are read from the wrapped functions' return values (``FptDraw``,
``SpikeTrain``), so they are deterministic functions of the call seeds.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np


def _draw_counts(counts: Counter, draw) -> None:
    counts["exact.proposals"] += draw.proposals
    counts["exact.clock_events"] += draw.clock_events


def _curvy_counts(counts: Counter, draw) -> None:
    counts["bm_fpt.line_draws"] += draw.clock_events


def _train_counts(counts: Counter, train) -> None:
    counts["neuron.spikes"] += train.count


def _path_counts(counts: Counter, draw) -> None:
    counts["baselines.censored"] += not draw.finite


#: (module, attribute, span name, count hook) for every wrapped call site.
TARGETS = (
    ("fptsim.cli", "run_experiment", "cli.run_experiment", None),
    ("fptsim.cli", "example1_problem", "cli.example1_problem", None),
    ("fptsim.cli", "example2_problem", "cli.example2_problem", None),
    ("fptsim.cli", "sample_batch", "cli.sample_batch", None),
    ("fptsim.cli", "simulate_trials", "cli.simulate_trials", None),
    ("fptsim.cli", "grid_batch", "cli.grid_batch", None),
    ("fptsim.cli", "ks_two_sample", "cli.ks_two_sample", None),
    ("fptsim.cli", "moment_bias", "cli.moment_bias", None),
    ("fptsim.cli", "summarize", "cli.summarize", None),
    ("fptsim.rng", "substream", "rng.substream", None),
    ("fptsim.exact", "sample_exact", "exact.sample_exact", _draw_counts),
    ("fptsim.exact", "sample_exact_below", "exact.sample_exact_below", _draw_counts),
    ("fptsim.exact", "sample_fpt_curvy", "exact.sample_fpt_curvy", _curvy_counts),
    ("fptsim.neuron", "sample_exact_below", "neuron.sample_exact_below", _draw_counts),
    ("fptsim.neuron", "simulate_spike_train", "neuron.simulate_spike_train", _train_counts),
    ("fptsim.baselines", "euler_fpt", "baselines.euler_fpt", _path_counts),
    ("fptsim.baselines", "improved_euler_fpt", "baselines.improved_euler_fpt", _path_counts),
)

ROOT_SPAN = "cli.run_experiment"
EXACT_DRAWS = ("exact.sample_exact", "exact.sample_exact_below", "neuron.sample_exact_below")
GRID_PATHS = ("baselines.euler_fpt", "baselines.improved_euler_fpt")
STATS = ("cli.ks_two_sample", "cli.moment_bias", "cli.summarize")
PROBLEM_BUILDS = ("cli.example1_problem", "cli.example2_problem")

#: Per-layer metrics: name -> unit.  Values are per traced call.
LAYER_UNITS = {
    "problems.build_s": "s/call",
    "rng.substream_calls": "count/call",
    "rng.substream_s": "s/call",
    "bm_fpt.curvy_calls": "count/call",
    "bm_fpt.curvy_s": "s/call",
    "bm_fpt.line_draws": "count/call",
    "exact.draw_calls": "count/call",
    "exact.draw_s": "s/call",
    "exact.self_s": "s/call",
    "exact.loop_s": "s/call",
    "exact.proposals": "count/call",
    "exact.clock_events": "count/call",
    "exact.accept_ratio": "ratio",
    "neuron.trials": "count/call",
    "neuron.spikes": "count/call",
    "neuron.stages": "count/call",
    "neuron.train_s": "s/call",
    "neuron.stage_setup_s": "s/call",
    "baselines.grid_calls": "count/call",
    "baselines.paths": "count/call",
    "baselines.censored": "count/call",
    "baselines.grid_s": "s/call",
    "baselines.path_s": "s/call",
    "stats.s": "s/call",
    "cli.run_s": "s/call",
    "cli.self_s": "s/call",
    "cli.bytes_written": "B/call",
    "trace.overhead_frac": "ratio",
}

#: Counts compared by the determinism self-test.
DETERMINISTIC_COUNTS = (
    "rng.substream_calls",
    "exact.draw_calls",
    "exact.proposals",
    "exact.clock_events",
    "bm_fpt.curvy_calls",
    "bm_fpt.line_draws",
    "neuron.trials",
    "neuron.stages",
    "neuron.spikes",
    "baselines.grid_calls",
    "baselines.paths",
    "baselines.censored",
)


def payload_expectations(payload: dict) -> list[tuple[str, str, int]]:
    """``(count metric, "==" or ">=", value)`` one traced call must meet.

    The values come from the call's payload alone, for the configs the
    benchmark runs (exact method, no space splitting): one exact draw per
    sample, one grid path per sample and comparison cell, and at least one
    substream per sample, path and neuron trial.
    """
    if payload["experiment"] == "neuron":
        trials, spikes = payload["config"]["n"], sum(payload["counts"])
        return [
            ("neuron.trials", "==", trials),
            ("neuron.spikes", "==", spikes),
            ("neuron.stages", ">=", spikes),
            ("rng.substream_calls", ">=", trials),
        ]
    n = payload["n"]
    cells = len(payload.get("comparison", ()))
    expect = [
        ("exact.draw_calls", "==", n),
        ("exact.proposals", "==", payload["total_proposals"]),
        ("exact.clock_events", "==", payload["total_clock_events"]),
        ("baselines.grid_calls", "==", cells),
        ("baselines.paths", "==", n * cells),
        ("rng.substream_calls", ">=", n * (1 + cells)),
    ]
    if payload["experiment"] == "example2":
        # every proposal of a curved threshold is one curvy passage draw
        expect.append(("bm_fpt.curvy_calls", "==", payload["total_proposals"]))
    return expect


def _count_metrics(n, c) -> dict[str, int]:
    """Count metrics from span counts ``n(*span names)`` and hook counts ``c``."""
    return {
        "rng.substream_calls": n("rng.substream"),
        "exact.draw_calls": n(*EXACT_DRAWS),
        "exact.proposals": c["exact.proposals"],
        "exact.clock_events": c["exact.clock_events"],
        "bm_fpt.curvy_calls": n("exact.sample_fpt_curvy"),
        "bm_fpt.line_draws": c["bm_fpt.line_draws"],
        "neuron.trials": n("neuron.simulate_spike_train"),
        "neuron.stages": n("neuron.sample_exact_below"),
        "neuron.spikes": c["neuron.spikes"],
        "baselines.grid_calls": n("cli.grid_batch"),
        "baselines.paths": n(*GRID_PATHS),
        "baselines.censored": c["baselines.censored"],
    }


class Tracer:
    """Span recorder; ``begin_call``/``end_call`` bracket one benchmark call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.call = array("q")
        self.counts: Counter = Counter()
        self.call_id = -1
        self._stack: list[int] = []
        self._first_span = 0
        self._counts_before: Counter = Counter()

    def _wrap(self, span_name: str, fn, hook):
        nid = len(self.names)
        self.names.append(span_name)
        stack = self._stack
        name_id, start, end, parent, call = self.name_id, self.start, self.end, self.parent, self.call

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            call.append(self.call_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(self.counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target and its aliases for the duration of the block, then restore."""
        saved = []
        wrappers = {}
        try:
            for module_name, attr, span_name, hook in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                wrapper = self._wrap(span_name, original, hook)
                wrappers.setdefault(id(original), (original, wrapper))
                saved.append((module, attr, original))
                setattr(module, attr, wrapper)
            modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "fptsim"]
            for module in modules:
                for attr, value in list(vars(module).items()):
                    original, wrapper = wrappers.get(id(value), (None, None))
                    if original is value:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def begin_call(self, call_id: int) -> None:
        """Tag the spans that follow with ``call_id``."""
        self.call_id = call_id
        self._first_span = len(self.start)
        self._counts_before = Counter(self.counts)

    def end_call(self, payload: dict) -> list[str]:
        """Compare this call's traced counts with its payload; list the mismatches.

        A mismatch means a call site the tracer does not wrap did the work, so
        the per-layer metrics would read low.
        """
        ids = np.frombuffer(self.name_id[self._first_span:], dtype=np.int64)
        per_id = np.bincount(ids, minlength=len(self.names))
        spans: Counter = Counter()
        for i, name in enumerate(self.names):
            spans[name] += int(per_id[i])
        got = _count_metrics(lambda *names: sum(spans[x] for x in names), self.counts - self._counts_before)
        problems = [] if spans[ROOT_SPAN] == 1 else [f"{spans[ROOT_SPAN]} {ROOT_SPAN} spans in one call"]
        for metric, op, want in payload_expectations(payload):
            if not (got[metric] == want if op == "==" else got[metric] >= want):
                problems.append(f"traced {metric} is {got[metric]}, the payload says {op} {want}")
        return problems

    # ------------------------------------------------------------------ analysis

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "call": np.array(self.call, dtype=np.int64),
        }

    def by_name(self) -> dict[str, dict[str, int]]:
        """Per span name: ``count``, total duration ``total_ns`` and ``self_ns``."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        covered = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        self_ns = dur - covered
        n_names = len(self.names)
        count = np.bincount(a["name_id"], minlength=n_names)
        total = np.zeros(n_names, dtype=np.int64)
        own = np.zeros(n_names, dtype=np.int64)
        np.add.at(total, a["name_id"], dur)
        np.add.at(own, a["name_id"], self_ns)
        out: dict[str, dict[str, int]] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
            row["count"] += int(count[i])
            row["total_ns"] += int(total[i])
            row["self_ns"] += int(own[i])
        return out

    def self_time_balance(self) -> tuple[int, int]:
        """``(sum of all self times, total root span time)``, both in ns.

        They differ only if a wrapped function ran outside ``run_experiment``;
        ``end_call`` is the check that catches unwrapped call sites.
        """
        rows = self.by_name()
        return sum(r["self_ns"] for r in rows.values()), rows[ROOT_SPAN]["total_ns"]

    def layer_totals(self, bytes_written: int) -> dict[str, float]:
        """Layer metrics summed over the traced calls; 0 where a layer was not called."""
        rows = self.by_name()

        def n(*names):
            return sum(rows.get(x, {}).get("count", 0) for x in names)

        def total(*names):
            return sum(rows.get(x, {}).get("total_ns", 0) for x in names) * 1e-9

        def own(*names):
            return sum(rows.get(x, {}).get("self_ns", 0) for x in names) * 1e-9

        return {
            **_count_metrics(n, self.counts),
            "problems.build_s": total(*PROBLEM_BUILDS),
            "rng.substream_s": total("rng.substream"),
            "bm_fpt.curvy_s": total("exact.sample_fpt_curvy"),
            "exact.draw_s": total(*EXACT_DRAWS),
            "exact.self_s": own(*EXACT_DRAWS),
            "exact.loop_s": own("cli.sample_batch"),
            "neuron.train_s": total("neuron.simulate_spike_train"),
            "neuron.stage_setup_s": own("neuron.simulate_spike_train"),
            "baselines.grid_s": total("cli.grid_batch"),
            "baselines.path_s": total(*GRID_PATHS),
            "stats.s": total(*STATS),
            "cli.run_s": total(ROOT_SPAN),
            "cli.self_s": own(ROOT_SPAN),
            "cli.bytes_written": bytes_written,
        }

    def layer_metrics(self, calls: int, bytes_written: int, overhead: float) -> dict[str, float]:
        """Every per-layer metric, per traced call (ratios as they are)."""
        totals = self.layer_totals(bytes_written)
        proposals = totals["exact.proposals"]
        ratios = {
            "exact.accept_ratio": totals["exact.draw_calls"] / proposals if proposals else 0.0,
            "trace.overhead_frac": overhead,
        }
        return {k: ratios[k] if k in ratios else totals[k] / calls for k in LAYER_UNITS}

    def deterministic_counts(self) -> dict[str, int]:
        """Totals of the counts that must repeat exactly for a given seed."""
        totals = self.layer_totals(0)
        return {k: int(totals[k]) for k in DETERMINISTIC_COUNTS}

    def write(self, path: Path) -> None:
        """Write all spans as one ``.npz`` (columns plus the name table)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
