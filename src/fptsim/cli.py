"""Configuration-driven experiment runner (console script ``fpt``).

Usage::

    fpt <experiment> [--config cfg.json] [--n N] [--seed S] [--out DIR]

with ``experiment`` one of ``example1``, ``example2``, ``neuron``,
``benchmark`` or ``sample``.  The JSON config supplies experiment parameters
(flags override config fields).  Each experiment and method family (the exact
sampler or the Euler grids) accepts its own keys (``_KEYS``); any other key,
and a ``null`` value, is refused.  Every run writes its artifacts into
``--out``:

* ``samples.csv`` — one row per draw: index, time, finite, proposals,
  clock_events (passage-time experiments),
* ``spikes.csv`` — trial, spike_index, time (neuron experiment),
* ``comparison.csv`` — delta, method, ks_D, ks_p, bias1, bias2, wall_time
  (benchmark experiment; both samples capped at the grid horizon),
* ``summary.json`` — summary statistics, acceptance diagnostics, wall time,
  the library version and the resolved config (the provenance record for all
  files of the run): ``experiment, n, seed, method, timing`` plus the
  experiment's keys that were given or have a default here.  Keys left to
  the library's own defaults (such as ``epsilon``) are not echoed.

Exit codes: 0 success; 2 configuration errors (an unusable output directory
too); 3 violated mathematical assumptions (negative rate, rate above its
stated bound, log-domain failures); 4 iteration-budget exhaustion.  Each
error class of :mod:`fptsim.errors` carries its code as ``exit_code``.
Failures print a machine-readable JSON object on standard error.

Sample ``i`` is drawn on its own substream of ``(seed, i)``, so a run is a
function of its config, and every key but ``out`` changes what it writes.
Wall-clock fields are the only non-deterministic output; set
``"timing": false`` in the config to zero them when byte-stable artifacts
are required.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .baselines import GridScheme, grid_batch
from .bm_fpt import FptDraw
from .errors import ConfigurationError, FptsimError
from .exact import ExactProblem, expected_proposals, sample_batch
from .neuron import (
    NeuronParams,
    pooled_isi_cv,
    simulate_trials,
    summarize_trains,
    write_spike_trains_csv,
)
from .problems import _registry_threshold, build_custom_problem, example1_problem, example2_problem
from .stats import ks_two_sample, moment_bias, summarize

__all__ = ["ExperimentConfig", "parse_config", "resolve_config", "run_experiment", "main"]

EXPERIMENTS = ("example1", "example2", "neuron", "benchmark", "sample")
METHODS = ("exact", "euler", "improved_euler")

#: Default discretization grid for Example-1/2-class problems (time units).
DEFAULT_GRID_HORIZON = 20.0
#: Benchmark refinement ladder.
DEFAULT_DELTAS = tuple(2.0**-k for k in range(4, 11))


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved run description; serialized into summaries.

    ``values`` holds every key that is set, the run keys of ``_RUN``
    (``n``, ``seed``, ``method``, ``out``, ``timing``) included, under its
    stored name.  Each key reads as an attribute too, ``None`` when unset
    (``cfg.epsilon is None``).
    """

    experiment: str
    values: dict

    def __getattr__(self, name: str) -> Any:
        if name in _NAMES:
            return self.values.get(name)
        raise AttributeError(name)

    def as_dict(self) -> dict:
        """Provenance echo: every value that can affect the written data.

        The output directory cannot, so it is left out, and artifacts are
        byte-identical across directories.
        """
        echo = {key: value for key, value in self.values.items() if key != "out"}
        return {"experiment": self.experiment, **echo}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _number(key: str, value: Any) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value),
        f"{key} must be a finite number, got {value!r}",
    )
    return float(value)


def _positive(key: str, value: Any) -> float:
    value = _number(key, value)
    _require(value > 0, f"{key} must be positive, got {value}")
    return value


def _integer(key: str, value: Any, minimum: int = 1) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool) and minimum <= value < 2**64,
        f"{key} must be an integer in [{minimum}, 2**64), got {value!r}",
    )
    return value


def _method(key: str, value: Any) -> str:
    _require(value in METHODS, f"{key} must be one of {list(METHODS)}, got {value!r}")
    return value


def _of_type(kind: type, what: str) -> Callable[[str, Any], Any]:
    def check(key: str, value: Any) -> Any:
        _require(isinstance(value, kind), f"{key} must be {what}, got {value!r}")
        return value

    return check


def _numbers(key: str, value: Any) -> dict:
    """A registry parameter object whose values are finite numbers.

    The values are kept as given, so an integer stays one in the echoed config.
    """
    _require(isinstance(value, dict), f"{key} must be an object, got {value!r}")
    for name, number in value.items():
        _number(f"{key}.{name}", number)
    return value


def _ladder(key: str, value: Any) -> tuple[float, ...]:
    _require(isinstance(value, (list, tuple)) and len(value) > 0, f"{key} must be a non-empty list")
    return tuple(_positive(f"{key}[{i}]", d) for i, d in enumerate(value))


_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    """One config key: its check, its default and where its value goes.

    ``check(key, value)`` returns the value or raises ``ConfigurationError``.
    With ``default`` None an unset key stays unset, so the library default
    applies.  ``arg`` is the keyword of the model call (problem builder or
    ``NeuronParams``) that takes the value; without it the runner reads the
    value.  ``name`` is the stored name when it differs from the key.
    """

    check: Callable[[str, Any], Any]
    default: Any = None
    arg: str | None = None
    name: str | None = None


def _passed(check: Callable[[str, Any], Any], **defaults: Any) -> dict[str, _Key]:
    """Keys the model call takes under their own names, with their defaults."""
    return {key: _Key(check, default, key) for key, default in defaults.items()}


_RUN = {
    "n": _Key(_integer, 1000),
    "seed": _Key(partial(_integer, minimum=0), 0),
    "method": _Key(_method, "exact"),
    "out": _Key(_of_type(str, "a string path"), "."),
    "timing": _Key(_of_type(bool, "a boolean"), True),
}
_EX1 = _passed(_number, K=1.6, a=-1.0, b=0.5, x0=0.0)
_EX2 = _passed(_number, K=1.6, a=1.0, b=1.0, x0=0.0)
_BUDGET = _passed(_integer, max_proposals=10**6)
_CURVE = _passed(_positive, epsilon=None, horizon=None)
_GRID = {"delta": _Key(_positive, _REQUIRED), "horizon": _Key(_positive, DEFAULT_GRID_HORIZON)}
_REGISTRY = {
    **_passed(_of_type(str, "a selector string"), drift=_REQUIRED, threshold=_REQUIRED),
    **_passed(_numbers, drift_params={}, threshold_params={}),
    **_passed(_number, x0=None),
}

#: The keys each (experiment, method family) accepts; a key outside its
#: entry is refused.  The family is ``exact`` or ``grid`` (both Euler
#: schemes); ``benchmark`` and ``neuron`` have no grid entry.
_KEYS: dict[tuple[str, str], dict[str, _Key]] = {
    ("example1", "exact"): {**_RUN, **_EX1, **_BUDGET, "split": _Key(_integer)},
    ("example1", "grid"): {**_RUN, **_EX1, **_GRID},
    ("example2", "exact"): {**_RUN, **_EX2, **_BUDGET, **_CURVE},
    ("example2", "grid"): {**_RUN, **_EX2, **_GRID},
    ("sample", "exact"): {**_RUN, **_REGISTRY, **_BUDGET, **_CURVE},
    ("sample", "grid"): {**_RUN, **_REGISTRY, **_GRID},
    ("benchmark", "exact"): {
        **_RUN,
        **_EX1,
        **_BUDGET,
        "deltas": _Key(_ladder, DEFAULT_DELTAS),
        "horizon": _Key(_positive, DEFAULT_GRID_HORIZON),
    },
    # the neuron counts trials, and its `delta` is the adaptation strength
    # of the threshold, not a grid width
    ("neuron", "exact"): {
        **{key: _RUN[key] for key in ("seed", "method", "out", "timing")},
        "trials": _Key(_integer, 5, name="n"),
        "horizon": _Key(_positive, 2.0),
        "current": _Key(_number, NeuronParams.I, "I"),
        "delta": _Key(_number, None, "delta", "adaptation"),
        **_passed(_number, tau_m=None, V_r=None, theta0=None),
        **_passed(_positive, sigma=None, v0=None, tau1=None, v_reset=None),
    },
}
_NAMES = {spec.name or key for keys in _KEYS.values() for key, spec in keys.items()}


def _entry(experiment: str, method: Any) -> dict[str, _Key] | None:
    return _KEYS.get((experiment, "exact" if method == "exact" else "grid"))


def resolve_config(mapping: dict) -> ExperimentConfig:
    """Check a raw config mapping against its experiment's keys and fill in defaults."""
    _require(isinstance(mapping, dict), "config must be a JSON object")
    experiment = mapping.get("experiment")
    _require(
        experiment in EXPERIMENTS,
        f"experiment must be one of {list(EXPERIMENTS)}, got {experiment!r}",
    )
    method = mapping.get("method", "exact")
    keys = _entry(experiment, method)
    _require(
        keys is not None,
        f"the {experiment} experiment runs the exact sampler only (the benchmark "
        f"adds both grid schemes itself); method must be 'exact', got {method!r}",
    )
    unknown = sorted(set(mapping) - set(keys) - {"experiment"})
    _require(not unknown, f"config keys unknown to {experiment} with method {method!r}: {unknown}")

    values: dict[str, Any] = {}
    for key, spec in keys.items():
        if key in mapping:
            values[spec.name or key] = spec.check(key, mapping[key])
        else:
            _require(spec.default is not _REQUIRED, f"{experiment} with method {method!r} requires {key!r}")
            if spec.default is not None:
                values[spec.name or key] = spec.default

    widths = values.get("deltas", (values["delta"],) if "delta" in values else ())
    _require(
        all(width <= values["horizon"] for width in widths),
        f"grid widths {list(widths)} must not exceed the grid horizon {values.get('horizon')}",
    )
    if experiment == "sample" and "epsilon" in values:
        _registry_threshold(values["threshold"], values["threshold_params"], values["epsilon"])
    return ExperimentConfig(experiment, values)


def _model_args(cfg: ExperimentConfig) -> dict:
    """The set keys the experiment's model call takes, by its keyword names."""
    keys = _entry(cfg.experiment, cfg.method)
    return {
        spec.arg: cfg.values[spec.name or key]
        for key, spec in keys.items()
        if spec.arg is not None and (spec.name or key) in cfg.values
    }


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
        writer.writerows([i, repr(t), "true" if finite else "false", p, c]
                         for i, (t, finite, p, c, _) in enumerate(draws))


def _write_comparison_csv(path: Path, rows: list[dict]) -> None:
    columns = ["delta", "method", "ks_D", "ks_p", "bias1", "bias2", "wall_time"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([repr(row[c]) if c != "method" else row[c] for c in columns] for row in rows)


def _write_run(cfg: ExperimentConfig, out: Path, wall: float, body: dict, writers: dict) -> dict:
    """Make the directory ``out``, write each artifact (file name: writer of
    its path) and ``summary.json``, and return the summary payload; an
    ``OSError`` on the way is a :class:`ConfigurationError` naming ``out``."""
    payload = {
        "experiment": cfg.experiment,
        "version": __version__,
        "config": cfg.as_dict(),
        "files": list(writers),
        "wall_time_s": wall if cfg.timing else 0.0,
        **body,
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, write in writers.items():
            write(out / name)
        with open(out / "summary.json", "w", newline="") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot write the artifacts to {str(out)!r}: {exc}") from exc
    return payload


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
    if cfg.experiment == "example2":
        build = example2_problem
    elif cfg.experiment == "sample":
        build = build_custom_problem
    else:
        build = example1_problem
    return build(**_model_args(cfg))


def _run_passage(cfg: ExperimentConfig, out: Path) -> dict:
    problem = _build_passage_problem(cfg)
    t0 = time.perf_counter()
    if cfg.method == "exact":
        draws = sample_batch(problem, cfg.n, cfg.seed, split=cfg.split)
        ref: ExactProblem | None = problem
    else:
        scheme = GridScheme(delta=cfg.delta, horizon=cfg.horizon, scheme=cfg.method)
        draws = grid_batch(problem.sde, problem.threshold, scheme, cfg.n, cfg.seed)
        ref = None
    wall = time.perf_counter() - t0
    body = _sample_summary(draws, ref)
    body["method"] = cfg.method
    return _write_run(cfg, out, wall, body, {"samples.csv": partial(_write_samples_csv, draws=draws)})


def _run_neuron(cfg: ExperimentConfig, out: Path) -> dict:
    params = NeuronParams(**_model_args(cfg))
    t0 = time.perf_counter()
    trains = simulate_trials(params, cfg.horizon, cfg.n, cfg.seed)
    wall = time.perf_counter() - t0
    body = {
        "trains": summarize_trains(trains),
        "counts": [t.count for t in trains],
        "cv_isi": pooled_isi_cv(trains),
    }
    return _write_run(cfg, out, wall, body, {"spikes.csv": partial(write_spike_trains_csv, trains)})


def _run_benchmark(cfg: ExperimentConfig, out: Path) -> dict:
    problem = _build_passage_problem(cfg)
    t0 = time.perf_counter()
    exact_draws = sample_batch(problem, cfg.n, cfg.seed)
    exact_wall = time.perf_counter() - t0
    # a grid path censored at the horizon only says tau >= horizon, so both
    # samples are compared on min(tau, horizon)
    exact_capped = np.minimum([d.time for d in exact_draws], cfg.horizon)
    rows = []
    for delta in cfg.deltas:
        for method_index, method in enumerate(("euler", "improved_euler")):
            scheme = GridScheme(delta=delta, horizon=cfg.horizon, scheme=method)
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
            approx_capped = np.minimum(approx, cfg.horizon)
            ks_d, ks_p = ks_two_sample(approx_capped, exact_capped)
            bias1, bias2 = moment_bias(approx_capped, exact_capped)
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

    body = _sample_summary(exact_draws, problem)
    body["comparison"] = rows
    return _write_run(cfg, out, exact_wall, body, {
        "samples.csv": partial(_write_samples_csv, draws=exact_draws),
        "comparison.csv": partial(_write_comparison_csv, rows=rows),
    })


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one experiment, write its artifacts, return the summary payload.

    The output directory is made just before the first artifact is written,
    so a run that fails leaves no directory behind, and a path that cannot
    be made a directory or written into is a :class:`ConfigurationError`.
    """
    out = Path(cfg.out)
    if cfg.experiment == "neuron":
        return _run_neuron(cfg, out)
    if cfg.experiment == "benchmark":
        return _run_benchmark(cfg, out)
    return _run_passage(cfg, out)


# --------------------------------------------------------------------------
# entry point

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
            mapping["trials" if args.experiment == "neuron" else "n"] = args.n
        if args.seed is not None:
            mapping["seed"] = args.seed
        if args.out is not None:
            mapping["out"] = args.out
        cfg = resolve_config(mapping)
        run_experiment(cfg)
    except FptsimError as exc:
        code = exc.exit_code
        json.dump(
            {"error": type(exc).__name__, "message": str(exc), "exit_code": code},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
