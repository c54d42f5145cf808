"""Configuration-driven experiment runner (console script ``fpt``).

Usage::

    fpt <experiment> [--config cfg.json] [--n N] [--seed S] [--out DIR]
        [--workers W]

with ``experiment`` one of ``example1``, ``example2``, ``neuron``,
``benchmark`` or ``sample``.  The JSON config supplies experiment parameters
(flags override config fields); unknown keys are rejected.  Every run writes
its artifacts into ``--out``:

* ``samples.csv`` — one row per draw: index, time, finite, proposals,
  clock_events (passage-time experiments),
* ``spikes.csv`` — trial, spike_index, time (neuron experiment),
* ``comparison.csv`` — delta, method, ks_D, ks_p, bias1, bias2, wall_time
  (benchmark experiment),
* ``summary.json`` — summary statistics, acceptance diagnostics, wall time,
  the full resolved config and the library version (the provenance record
  for all files of the run).

Exit codes: 0 success; 2 configuration errors; 3 violated mathematical
assumptions (negative rate, rate above its stated bound, log-domain
failures); 4 iteration-budget exhaustion.  Failures print a machine-readable
JSON object on standard error.

Sample ``i`` is drawn on its own substream of ``(seed, i)``, so a run is a
function of its config.  ``--workers`` (config key ``workers``) is accepted
and checked (an integer >= 1) but has no effect: sampling is serial, and
the key is left out of the echoed config.  Wall-clock fields are the only
non-deterministic output; set ``"timing": false`` in the config
to zero them when byte-stable artifacts are required.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .baselines import GridScheme, grid_batch
from .bm_fpt import FptDraw
from .errors import (
    AssumptionViolation,
    ConfigurationError,
    DomainError,
    FptsimError,
    NonTerminationError,
    ParameterError,
    SequencingError,
)
from .exact import ExactProblem, expected_proposals, sample_batch
from .neuron import (
    NeuronParams,
    pooled_isi_cv,
    simulate_trials,
    summarize_trains,
    write_spike_trains_csv,
)
from .problems import build_custom_problem, example1_problem, example2_problem
from .stats import ks_two_sample, moment_bias, summarize

__all__ = ["ExperimentConfig", "parse_config", "resolve_config", "run_experiment", "main"]

EXPERIMENTS = ("example1", "example2", "neuron", "benchmark", "sample")
METHODS = ("exact", "euler", "improved_euler")

#: Default discretization grid for Example-1/2-class problems (time units).
DEFAULT_GRID_HORIZON = 20.0
#: Default proposal horizon for curvy proposals.
DEFAULT_PROPOSAL_HORIZON = 50.0
#: Benchmark refinement ladder.
DEFAULT_DELTAS = tuple(2.0**-k for k in range(4, 11))


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved run description; serialized verbatim into summaries."""

    experiment: str
    n: int = 1000
    seed: int = 0
    method: str = "exact"
    workers: int = 1
    out: str = "."
    timing: bool = True
    max_proposals: int = 10**6
    delta: float | None = None
    epsilon: float | None = None
    deltas: tuple[float, ...] | None = None
    horizon: float | None = None
    split: int | None = None
    K: float | None = None
    a: float | None = None
    b: float | None = None
    x0: float | None = None
    current: float | None = None
    tau_m: float | None = None
    V_r: float | None = None
    sigma: float | None = None
    v0: float | None = None
    theta0: float | None = None
    tau1: float | None = None
    adaptation: float | None = None
    v_reset: float | None = None
    drift: str | None = None
    drift_params: dict | None = None
    threshold: str | None = None
    threshold_params: dict | None = None

    def as_dict(self) -> dict:
        """Provenance echo: every field that can affect the written data.

        The output directory and the worker count (accepted, with no effect)
        do not influence results, so they are omitted to keep artifacts
        byte-identical across them.
        """
        d = asdict(self)
        del d["out"], d["workers"]
        if d["deltas"] is not None:
            d["deltas"] = list(d["deltas"])
        return d


_COMMON_KEYS = {"experiment", "n", "seed", "method", "workers", "out", "timing", "max_proposals"}
_PROBLEM_KEYS = {"K", "a", "b", "x0"}
_ALLOWED_KEYS = {
    "example1": _COMMON_KEYS | _PROBLEM_KEYS | {"split", "delta", "horizon"},
    "example2": _COMMON_KEYS | _PROBLEM_KEYS | {"epsilon", "delta", "horizon"},
    "benchmark": _COMMON_KEYS | _PROBLEM_KEYS | {"deltas", "horizon"},
    "neuron": (_COMMON_KEYS - {"method", "max_proposals"})
    | {
        "trials",
        "current",
        "horizon",
        "tau_m",
        "V_r",
        "sigma",
        "v0",
        "theta0",
        "tau1",
        "delta",
        "v_reset",
    },
    "sample": _COMMON_KEYS
    | {"drift", "drift_params", "threshold", "threshold_params", "x0", "epsilon", "delta", "horizon"},
}

_EXAMPLE_DEFAULTS = {
    "example1": {"K": 1.6, "a": -1.0, "b": 0.5, "x0": 0.0},
    "example2": {"K": 1.6, "a": 1.0, "b": 1.0, "x0": 0.0},
    "benchmark": {"K": 1.6, "a": -1.0, "b": 0.5, "x0": 0.0},
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _check_number(name: str, value: Any, *, positive: bool = False) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value),
        f"{name} must be a finite number, got {value!r}",
    )
    if positive:
        _require(value > 0, f"{name} must be positive, got {value}")
    return float(value)


def _check_int(name: str, value: Any, minimum: int) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{name} must be an integer, got {value!r}",
    )
    _require(value >= minimum, f"{name} must be >= {minimum}, got {value}")
    return value


def resolve_config(mapping: dict) -> ExperimentConfig:
    """Validate a raw config mapping and fill in experiment defaults."""
    _require(isinstance(mapping, dict), "config must be a JSON object")
    raw = dict(mapping)
    experiment = raw.get("experiment")
    _require(
        experiment in EXPERIMENTS,
        f"experiment must be one of {list(EXPERIMENTS)}, got {experiment!r}",
    )

    allowed = _ALLOWED_KEYS[experiment]
    unknown = sorted(set(raw) - allowed)
    _require(not unknown, f"unknown config keys for {experiment}: {unknown}")

    if experiment == "neuron":
        # the neuron experiment counts trials, and its `delta` is the
        # adaptation strength of the threshold, not a grid width
        if "trials" in raw:
            raw["n"] = raw.pop("trials")
        if "delta" in raw:
            raw["adaptation"] = raw.pop("delta")
        if "current" not in raw:
            raw["current"] = 0.0
        raw.setdefault("n", 5)
        raw.setdefault("horizon", 2.0)
        raw["method"] = "exact"
    else:
        for key, value in _EXAMPLE_DEFAULTS.get(experiment, {}).items():
            raw.setdefault(key, value)

    cfg_kwargs: dict[str, Any] = {"experiment": experiment}

    cfg_kwargs["n"] = _check_int("n", raw.get("n", 1000), 1)
    cfg_kwargs["seed"] = _check_int("seed", raw.get("seed", 0), 0)
    _require(cfg_kwargs["seed"] < 2**64, "seed must fit in 64 bits")
    cfg_kwargs["workers"] = _check_int("workers", raw.get("workers", 1), 1)
    cfg_kwargs["max_proposals"] = _check_int(
        "max_proposals", raw.get("max_proposals", 10**6), 1
    )
    method = raw.get("method", "exact")
    _require(method in METHODS, f"method must be one of {list(METHODS)}, got {method!r}")
    cfg_kwargs["method"] = method
    out = raw.get("out", ".")
    _require(isinstance(out, str), f"out must be a string path, got {out!r}")
    cfg_kwargs["out"] = out
    timing = raw.get("timing", True)
    _require(isinstance(timing, bool), f"timing must be a boolean, got {timing!r}")
    cfg_kwargs["timing"] = timing

    for key in ("delta", "epsilon", "horizon", "K", "a", "b", "x0", "current",
                "tau_m", "V_r", "sigma", "v0", "theta0", "tau1", "adaptation", "v_reset"):
        if raw.get(key) is not None:
            positive = key in ("delta", "epsilon", "horizon", "sigma", "v0", "tau1", "v_reset")
            cfg_kwargs[key] = _check_number(key, raw[key], positive=positive)

    if raw.get("split") is not None:
        cfg_kwargs["split"] = _check_int("split", raw["split"], 1)

    if experiment == "benchmark":
        deltas = raw.get("deltas", list(DEFAULT_DELTAS))
        _require(
            isinstance(deltas, (list, tuple)) and len(deltas) > 0,
            "deltas must be a non-empty list",
        )
        cfg_kwargs["deltas"] = tuple(
            _check_number(f"deltas[{i}]", d, positive=True) for i, d in enumerate(deltas)
        )

    _require(
        experiment != "benchmark" or method == "exact",
        "the benchmark experiment always compares the exact sampler with both "
        f"grid schemes; method must be 'exact', got {method!r}",
    )
    _require(
        cfg_kwargs.get("split") is None or method == "exact",
        f"split applies to the exact sampler only; method {method!r} cannot use it",
    )

    if method != "exact" and experiment in ("example1", "example2", "sample"):
        _require(
            cfg_kwargs.get("delta") is not None,
            f"method {method!r} requires a positive delta (grid width)",
        )

    if experiment == "sample":
        for key in ("drift", "threshold"):
            _require(
                isinstance(raw.get(key), str),
                f"sample experiment requires a {key!r} selector string",
            )
            cfg_kwargs[key] = raw[key]
        for key in ("drift_params", "threshold_params"):
            params = raw.get(key, {})
            _require(isinstance(params, dict), f"{key} must be an object")
            cfg_kwargs[key] = params

    return ExperimentConfig(**cfg_kwargs)


def _decode_config(text: bytes) -> dict:
    """Decode a UTF-8 JSON config document into its top-level object."""
    try:
        decoded = text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config is not valid UTF-8: {exc}") from exc
    try:
        mapping = json.loads(decoded)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(mapping, dict), "config must be a JSON object")
    return mapping


def parse_config(text: bytes) -> ExperimentConfig:
    """Parse a UTF-8 JSON config document into a validated config."""
    return resolve_config(_decode_config(text))


# --------------------------------------------------------------------------
# artifact writers


def _write_samples_csv(path: Path, draws: Sequence[FptDraw]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "time", "finite", "proposals", "clock_events"])
        for i, d in enumerate(draws):
            writer.writerow(
                [i, repr(d.time), "true" if d.finite else "false", d.proposals, d.clock_events]
            )


def _write_summary(path: Path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summary_payload(cfg: ExperimentConfig, wall: float, body: dict, files: list[str]) -> dict:
    return {
        "experiment": cfg.experiment,
        "version": __version__,
        "config": cfg.as_dict(),
        "files": files,
        "wall_time_s": wall if cfg.timing else 0.0,
        **body,
    }


def _sample_summary(draws: Sequence[FptDraw], problem: ExactProblem | None) -> dict:
    times = np.array([d.time for d in draws])
    stats = summarize(times)
    body: dict[str, Any] = {
        "n": len(draws),
        "censored": int(np.sum(~np.isfinite(times))),
        "summary_stats": stats.as_dict(),
    }
    total_proposals = sum(d.proposals for d in draws)
    total_events = sum(d.clock_events for d in draws)
    body["total_proposals"] = total_proposals
    body["total_clock_events"] = total_events
    body["total_line_draws"] = sum(d.line_draws for d in draws)
    if problem is not None and total_proposals > 0:
        body["mean_proposals"] = total_proposals / len(draws)
        body["acceptance_rate"] = len(draws) / total_proposals
        body["expected_mean_proposals"] = expected_proposals(problem)
    return body


# --------------------------------------------------------------------------
# experiment runners


def _build_passage_problem(cfg: ExperimentConfig) -> ExactProblem:
    if cfg.experiment in ("example1", "benchmark"):
        return example1_problem(
            K=cfg.K, a=cfg.a, b=cfg.b, x0=cfg.x0, max_proposals=cfg.max_proposals
        )
    if cfg.experiment == "example2":
        return example2_problem(
            K=cfg.K,
            a=cfg.a,
            b=cfg.b,
            x0=cfg.x0,
            epsilon=cfg.epsilon if cfg.epsilon is not None else 2.0**-4,
            horizon=cfg.horizon if cfg.horizon is not None else DEFAULT_PROPOSAL_HORIZON,
            max_proposals=cfg.max_proposals,
        )
    assert cfg.experiment == "sample"
    return build_custom_problem(
        drift=cfg.drift,
        drift_params=cfg.drift_params or {},
        threshold=cfg.threshold,
        threshold_params=cfg.threshold_params or {},
        x0=cfg.x0 if cfg.x0 is not None else 0.0,
        epsilon=cfg.epsilon if cfg.epsilon is not None else 2.0**-4,
        horizon=cfg.horizon if cfg.horizon is not None else DEFAULT_PROPOSAL_HORIZON,
        max_proposals=cfg.max_proposals,
    )


def _run_passage(cfg: ExperimentConfig, out: Path) -> dict:
    problem = _build_passage_problem(cfg)
    t0 = time.perf_counter()
    if cfg.method == "exact":
        draws = sample_batch(problem, cfg.n, cfg.seed, split=cfg.split)
        ref: ExactProblem | None = problem
    else:
        scheme = GridScheme(
            delta=cfg.delta,
            horizon=cfg.horizon if cfg.horizon is not None else DEFAULT_GRID_HORIZON,
            scheme=cfg.method,
        )
        draws = grid_batch(problem.sde, problem.threshold, scheme, cfg.n, cfg.seed)
        ref = None
    wall = time.perf_counter() - t0
    _write_samples_csv(out / "samples.csv", draws)
    body = _sample_summary(draws, ref)
    body["method"] = cfg.method
    payload = _summary_payload(cfg, wall, body, ["samples.csv"])
    _write_summary(out / "summary.json", payload)
    return payload


def _run_neuron(cfg: ExperimentConfig, out: Path) -> dict:
    defaults = NeuronParams()
    params = NeuronParams(
        tau_m=cfg.tau_m if cfg.tau_m is not None else defaults.tau_m,
        V_r=cfg.V_r if cfg.V_r is not None else defaults.V_r,
        sigma=cfg.sigma if cfg.sigma is not None else defaults.sigma,
        v0=cfg.v0 if cfg.v0 is not None else defaults.v0,
        I=cfg.current if cfg.current is not None else defaults.I,
        theta0=cfg.theta0 if cfg.theta0 is not None else defaults.theta0,
        tau1=cfg.tau1 if cfg.tau1 is not None else defaults.tau1,
        delta=cfg.adaptation if cfg.adaptation is not None else defaults.delta,
        v_reset=cfg.v_reset,
    )
    horizon = cfg.horizon if cfg.horizon is not None else 2.0
    t0 = time.perf_counter()
    trains = simulate_trials(params, horizon, cfg.n, cfg.seed)
    wall = time.perf_counter() - t0
    write_spike_trains_csv(trains, out / "spikes.csv")
    body = {
        "trains": summarize_trains(trains),
        "counts": [t.count for t in trains],
        "cv_isi": pooled_isi_cv(trains),
    }
    payload = _summary_payload(cfg, wall, body, ["spikes.csv"])
    _write_summary(out / "summary.json", payload)
    return payload


def _run_benchmark(cfg: ExperimentConfig, out: Path) -> dict:
    problem = _build_passage_problem(cfg)
    t0 = time.perf_counter()
    exact_draws = sample_batch(problem, cfg.n, cfg.seed)
    exact_wall = time.perf_counter() - t0
    exact_times = np.array([d.time for d in exact_draws])
    _write_samples_csv(out / "samples.csv", exact_draws)

    grid_horizon = cfg.horizon if cfg.horizon is not None else DEFAULT_GRID_HORIZON
    rows = []
    for delta in cfg.deltas:
        for method_index, method in enumerate(("euler", "improved_euler")):
            scheme = GridScheme(delta=delta, horizon=grid_horizon, scheme=method)
            t1 = time.perf_counter()
            draws = grid_batch(
                problem.sde,
                problem.threshold,
                scheme,
                cfg.n,
                cfg.seed,
                key_prefix=(1 + method_index,),
            )
            cell_wall = time.perf_counter() - t1
            approx = np.array([d.time for d in draws])
            approx_fin = approx[np.isfinite(approx)]
            ks_d, ks_p = ks_two_sample(approx_fin, exact_times)
            bias1, bias2 = moment_bias(approx_fin, exact_times)
            rows.append(
                {
                    "delta": delta,
                    "method": method,
                    "ks_D": ks_d,
                    "ks_p": ks_p,
                    "bias1": bias1,
                    "bias2": bias2,
                    "censored": int(np.sum(~np.isfinite(approx))),
                    "wall_time": cell_wall if cfg.timing else 0.0,
                }
            )

    with open(out / "comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["delta", "method", "ks_D", "ks_p", "bias1", "bias2", "wall_time"])
        for row in rows:
            writer.writerow(
                [
                    repr(row["delta"]),
                    row["method"],
                    repr(row["ks_D"]),
                    repr(row["ks_p"]),
                    repr(row["bias1"]),
                    repr(row["bias2"]),
                    repr(row["wall_time"]),
                ]
            )

    body = _sample_summary(exact_draws, problem)
    body["comparison"] = rows
    payload = _summary_payload(
        cfg, exact_wall, body, ["samples.csv", "comparison.csv"]
    )
    _write_summary(out / "summary.json", payload)
    return payload


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one experiment, write its artifacts, return the summary payload."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.experiment == "neuron":
        return _run_neuron(cfg, out)
    if cfg.experiment == "benchmark":
        return _run_benchmark(cfg, out)
    return _run_passage(cfg, out)


# --------------------------------------------------------------------------
# entry point

_EXIT_CODES: tuple[tuple[type, int], ...] = (
    (ConfigurationError, 2),
    (ParameterError, 2),
    (SequencingError, 2),
    (DomainError, 3),
    (AssumptionViolation, 3),
    (NonTerminationError, 4),
)


def _exit_code(exc: FptsimError) -> int:
    for etype, code in _EXIT_CODES:
        if isinstance(exc, etype):
            return code
    return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpt",
        description="Exact first-passage-time sampling experiments.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--n", type=int, help="sample count (trials for neuron)")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", type=str, help="output directory")
    parser.add_argument("--workers", type=int, help="accepted, no effect (sampling is serial)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            try:
                raw_bytes = args.config.read_bytes()
            except OSError as exc:
                raise ConfigurationError(f"cannot read config: {exc}") from exc
            mapping = _decode_config(raw_bytes)
        else:
            mapping = {}
        if "experiment" in mapping and mapping["experiment"] != args.experiment:
            raise ConfigurationError(
                f"config experiment {mapping['experiment']!r} conflicts with "
                f"command-line experiment {args.experiment!r}"
            )
        mapping["experiment"] = args.experiment
        if args.n is not None:
            mapping.pop("trials", None)
            mapping["n" if args.experiment != "neuron" else "trials"] = args.n
        if args.seed is not None:
            mapping["seed"] = args.seed
        if args.out is not None:
            mapping["out"] = args.out
        if args.workers is not None:
            mapping["workers"] = args.workers
        cfg = resolve_config(mapping)
        run_experiment(cfg)
    except FptsimError as exc:
        code = _exit_code(exc)
        json.dump(
            {"error": type(exc).__name__, "message": str(exc), "exit_code": code},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
