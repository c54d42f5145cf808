"""Experiment runner: config resolution, artifacts, exit codes, determinism."""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fptsim.baselines import GridScheme, grid_batch
from fptsim.cli import (
    DEFAULT_DELTAS,
    _KEYS,
    _RUN,
    _build_passage_problem,
    EXPERIMENTS,
    ExperimentConfig,
    main,
    parse_config,
    resolve_config,
    run_experiment,
)
from fptsim.errors import ConfigurationError
from fptsim.exact import sample_batch
from fptsim.stats import ks_two_sample, moment_bias


# --- config resolution ----------------------------------------------------------


def test_resolve_example1_defaults():
    cfg = resolve_config({"experiment": "example1"})
    assert cfg.n == 1000
    assert cfg.seed == 0
    assert cfg.method == "exact"
    assert cfg.timing is True
    assert (cfg.K, cfg.a, cfg.b, cfg.x0) == (1.6, -1.0, 0.5, 0.0)


def test_resolve_example2_defaults():
    cfg = resolve_config({"experiment": "example2"})
    assert (cfg.K, cfg.a, cfg.b) == (1.6, 1.0, 1.0)
    assert cfg.epsilon is None  # builder default applies downstream


def test_resolve_neuron_aliases_and_defaults():
    cfg = resolve_config(
        {"experiment": "neuron", "trials": 7, "delta": 0.25, "current": 20.0}
    )
    assert cfg.n == 7
    assert cfg.adaptation == 0.25
    assert cfg.current == 20.0
    assert cfg.horizon == 2.0
    assert cfg.method == "exact"
    bare = resolve_config({"experiment": "neuron"})
    assert bare.n == 5
    assert bare.current == 0.0


def test_resolve_benchmark_defaults():
    cfg = resolve_config({"experiment": "benchmark"})
    assert cfg.deltas == DEFAULT_DELTAS
    assert resolve_config(
        {"experiment": "benchmark", "deltas": [0.5, 0.25]}
    ).deltas == (0.5, 0.25)


def test_resolve_rejections():
    with pytest.raises(ConfigurationError):
        resolve_config({"experiment": "nope"})
    with pytest.raises(ConfigurationError):
        resolve_config({"experiment": "example1", "grid": 0.1})  # unknown key
    with pytest.raises(ConfigurationError):
        resolve_config({"experiment": "example1", "n": "many"})
    with pytest.raises(ConfigurationError):
        resolve_config({"experiment": "example1", "n": 0})
    with pytest.raises(ConfigurationError):
        resolve_config({"experiment": "example1", "method": "euler"})  # no delta
    with pytest.raises(ConfigurationError):
        resolve_config({"experiment": "example1", "timing": "yes"})
    with pytest.raises(ConfigurationError):
        resolve_config({"experiment": "benchmark", "deltas": []})
    with pytest.raises(ConfigurationError):
        resolve_config({"experiment": "sample", "drift": "zero"})  # no threshold
    with pytest.raises(ConfigurationError):
        resolve_config({"experiment": "neuron", "method": "euler"})


def test_parse_config_rejects_bad_bytes():
    with pytest.raises(ConfigurationError):
        parse_config(b"\xff\xfe not utf8 \xff")
    with pytest.raises(ConfigurationError):
        parse_config(b"{not json")
    with pytest.raises(ConfigurationError):
        parse_config(b"[1, 2]")
    cfg = parse_config(b'{"experiment": "example1", "n": 3}')
    assert cfg.n == 3


def test_config_echo_excludes_invocation_details():
    cfg = resolve_config({"experiment": "example1", "out": "/tmp/x"})
    echoed = cfg.as_dict()
    assert "out" not in echoed
    assert echoed["experiment"] == "example1"


_RUN_ECHO = {"n": 1000, "seed": 0, "method": "exact", "timing": True}
_EX1_ECHO = {"K": 1.6, "a": -1.0, "b": 0.5, "x0": 0.0}
_NEURON_ECHO = {"n": 5, "seed": 0, "method": "exact", "timing": True, "horizon": 2.0,
                "current": 0.0}


@pytest.mark.parametrize(
    "mapping, echo",
    [
        ({"experiment": "example1"},
         {**_RUN_ECHO, **_EX1_ECHO, "max_proposals": 10**6}),
        ({"experiment": "example1", "method": "euler", "delta": 0.05},
         {**_RUN_ECHO, **_EX1_ECHO, "method": "euler", "delta": 0.05, "horizon": 20.0}),
        ({"experiment": "example2"},
         {**_RUN_ECHO, "K": 1.6, "a": 1.0, "b": 1.0, "x0": 0.0, "max_proposals": 10**6}),
        ({"experiment": "sample", "drift": "zero", "threshold": "linear",
          "threshold_params": {"a": -0.5, "b": 1.0}},
         {**_RUN_ECHO, "drift": "zero", "threshold": "linear", "drift_params": {},
          "threshold_params": {"a": -0.5, "b": 1.0}, "max_proposals": 10**6}),
        ({"experiment": "benchmark"},
         {**_RUN_ECHO, **_EX1_ECHO, "max_proposals": 10**6,
          "deltas": (2**-4, 2**-5, 2**-6, 2**-7, 2**-8, 2**-9, 2**-10), "horizon": 20.0}),
        ({"experiment": "neuron"}, _NEURON_ECHO),
        # the neuron's one method may be named
        ({"experiment": "neuron", "method": "exact"}, _NEURON_ECHO),
    ],
    ids=["example1", "example1_euler", "example2", "sample", "benchmark", "neuron",
         "neuron_exact"],
)
def test_config_echo_is_pinned(mapping, echo):
    # every resolved key but `out` is echoed, run keys included
    cfg = resolve_config({**mapping, "out": "o"})
    assert cfg.as_dict() == {"experiment": mapping["experiment"], **echo}


# --- runner and artifacts --------------------------------------------------------


def _read_summary(out):
    return json.loads((out / "summary.json").read_text())


def test_example1_run_writes_artifacts(tmp_path):
    cfg = resolve_config(
        {"experiment": "example1", "n": 40, "seed": 3, "out": str(tmp_path)}
    )
    run_experiment(cfg)
    with open(tmp_path / "samples.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "time", "finite", "proposals", "clock_events"]
    assert len(rows) == 41
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(40)]
    assert all(float(r[1]) > 0 for r in rows[1:])

    summary = _read_summary(tmp_path)
    assert summary["experiment"] == "example1"
    assert summary["n"] == 40
    assert "version" in summary
    assert summary["config"]["seed"] == 3
    assert "workers" not in summary["config"]
    assert "expected_mean_proposals" in summary
    assert summary["total_line_draws"] == 0
    assert summary["files"] == ["samples.csv"]
    stats = summary["summary_stats"]
    assert stats["n"] == 40
    assert 0.0 < stats["mean"] < 2.0


@pytest.mark.parametrize(
    "mapping",
    [
        {"experiment": "example1", "n": 30},
        {"experiment": "example1", "n": 20, "split": 2},
        {"experiment": "example2", "n": 20},
        {"experiment": "example1", "n": 20, "method": "euler", "delta": 0.05},
    ],
    ids=["example1", "split", "example2", "euler"],
)
def test_samples_csv_holds_plain_float_text(tmp_path, mapping):
    # numpy 2 reprs a numpy scalar as ``np.float64(...)``; one leaking into
    # a draw would corrupt the CSV
    run_experiment(resolve_config(dict(mapping, seed=12, out=str(tmp_path))))
    text = (tmp_path / "samples.csv").read_text()
    assert "np." not in text
    with open(tmp_path / "samples.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert all(float(r[1]) >= 0.0 for r in rows)


def test_example2_summary_reports_line_draws(tmp_path):
    cfg = resolve_config({"experiment": "example2", "n": 20, "seed": 13, "out": str(tmp_path)})
    draws = sample_batch(_build_passage_problem(cfg), cfg.n, cfg.seed)
    run_experiment(cfg)
    with open(tmp_path / "samples.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["index", "time", "finite", "proposals", "clock_events"]
    summary = _read_summary(tmp_path)
    assert summary["total_line_draws"] == sum(d.line_draws for d in draws)
    assert summary["total_line_draws"] >= summary["total_proposals"]
    assert summary["total_clock_events"] == sum(d.clock_events for d in draws)


def test_neuron_run_writes_spike_trains(tmp_path):
    cfg = resolve_config(
        {
            "experiment": "neuron",
            "trials": 3,
            "current": 20.0,
            "horizon": 1.0,
            "seed": 5,
            "out": str(tmp_path),
        }
    )
    summary = run_experiment(cfg)
    with open(tmp_path / "spikes.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "spike_index", "time"]
    assert len(rows) > 1
    assert summary["counts"] == _read_summary(tmp_path)["counts"]
    assert len(summary["counts"]) == 3
    trains = _read_summary(tmp_path)["trains"]
    assert trains["stages"] >= trains["total_spikes"] == sum(summary["counts"])
    assert trains["proposals"] >= trains["stages"]


def test_benchmark_run_writes_comparison(tmp_path):
    cfg = resolve_config(
        {
            "experiment": "benchmark",
            "n": 60,
            "deltas": [0.25, 0.125],
            "horizon": 8.0,
            "seed": 6,
            "out": str(tmp_path),
        }
    )
    run_experiment(cfg)
    with open(tmp_path / "comparison.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["delta", "method", "ks_D", "ks_p", "bias1", "bias2", "wall_time"]
    assert len(rows) == 1 + 2 * 2  # two methods per delta
    methods = {r[1] for r in rows[1:]}
    assert methods == {"euler", "improved_euler"}


def test_benchmark_compares_horizon_capped_times(tmp_path):
    # a censored grid path only says tau >= horizon: both samples are
    # compared on min(tau, horizon), not the grid's survivors on raw times
    mapping = {"experiment": "benchmark", "n": 200, "deltas": [0.0625], "horizon": 0.5}
    cfg = resolve_config({**mapping, "seed": 3, "timing": False, "out": str(tmp_path)})
    summary = run_experiment(cfg)
    problem = _build_passage_problem(cfg)
    exact = np.minimum([d.time for d in sample_batch(problem, 200, 3)], 0.5)
    for index, row in enumerate(summary["comparison"]):
        scheme = GridScheme(delta=0.0625, horizon=0.5, scheme=row["method"])
        draws = grid_batch(problem.sde, problem.threshold, scheme, 200, 3, key_prefix=(1 + index,))
        approx = np.minimum([d.time for d in draws], 0.5)
        assert 0 < row["censored"] < 200
        assert (row["bias1"], row["bias2"]) == moment_bias(approx, exact)
        assert (row["ks_D"], row["ks_p"]) == ks_two_sample(approx, exact)


def test_benchmark_comparison_is_pinned(tmp_path):
    # literal rows whose ks_p equal scipy.special.kolmogorov at D * sqrt(50):
    # the large-x branch of the Kolmogorov sf in the first three rows, the
    # small-x branch (x <= 0.82) in the last
    mapping = {"experiment": "benchmark", "n": 100, "deltas": [0.0625, 0.015625], "seed": 3}
    run_experiment(resolve_config({**mapping, "timing": False, "out": str(tmp_path)}))
    assert (tmp_path / "comparison.csv").read_text().splitlines() == [
        "delta,method,ks_D,ks_p,bias1,bias2,wall_time",
        "0.0625,euler,0.26,0.002318458344197518,0.038491616134745416,-0.009060650958454843,0.0",
        "0.0625,improved_euler,0.13,0.36672108555376126,"
        "0.028179116134745413,0.03702787097967649,0.0",
        "0.015625,euler,0.15000000000000002,0.21055163272601088,"
        "-0.0019771338652545822,-0.013066653365336144,0.0",
        "0.015625,improved_euler,0.07999999999999996,0.9062063895703109,"
        "0.007475991134745424,0.012183695583132939,0.0",
    ]


def test_benchmark_with_every_grid_path_censored_exits_0(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"deltas": [2.0**-8], "horizon": 2.0**-8}))
    out = tmp_path / "o"
    assert main(["benchmark", "--config", str(cfg_file), "--n", "20", "--out", str(out)]) == 0
    rows = json.loads((out / "summary.json").read_text())["comparison"]
    assert [row["censored"] for row in rows] == [20, 20]
    # every capped time equals the horizon in both samples
    assert all(row["bias1"] == row["bias2"] == row["ks_D"] == 0.0 for row in rows)


def test_sample_experiment_uses_registry(tmp_path):
    cfg = resolve_config(
        {
            "experiment": "sample",
            "drift": "zero",
            "drift_params": {},
            "threshold": "linear",
            "threshold_params": {"a": -0.5, "b": 1.0},
            "n": 30,
            "seed": 7,
            "out": str(tmp_path),
        }
    )
    summary = run_experiment(cfg)
    assert summary["n"] == 30
    assert (tmp_path / "samples.csv").exists()


# --- command-line entry point ----------------------------------------------------


def test_main_success_and_seed_override(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["example1", "--n", "25", "--seed", "9", "--out", str(out)])
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["config"]["seed"] == 9


def test_main_n_maps_to_trials_for_neuron(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"current": 20.0, "horizon": 0.5, "trials": 9}))
    out = tmp_path / "run"
    code = main(
        ["neuron", "--config", str(cfg_file), "--n", "2", "--out", str(out)]
    )
    assert code == 0
    assert len(json.loads((out / "summary.json").read_text())["counts"]) == 2


_SAMPLE = {"drift": "zero", "threshold": "linear", "threshold_params": {"a": -0.5, "b": 1.0}}


def _stderr_error(capsys):
    err = capsys.readouterr().err
    return json.loads(err.splitlines()[-1])


def test_main_exit_code_2_on_config_errors(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"experiment": "example2"}))
    code = main(["example1", "--config", str(cfg_file)])
    assert code == 2
    payload = _stderr_error(capsys)
    assert payload["error"] == "ConfigurationError"
    assert payload["exit_code"] == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["example1", "--config", str(bad)]) == 2
    capsys.readouterr()
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"n": 3, "out": "caf\xe9"}')
    assert main(["example1", "--config", str(not_utf8)]) == 2
    assert _stderr_error(capsys)["error"] == "ConfigurationError"
    assert main(["example1", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    # sampling is serial: `workers` is neither a config key nor a flag
    workers = tmp_path / "workers.json"
    workers.write_text(json.dumps({"workers": 1, "out": str(tmp_path / "w")}))
    assert main(["example1", "--config", str(workers)]) == 2
    payload = _stderr_error(capsys)
    assert payload["error"] == "ConfigurationError"
    assert "'workers'" in payload["message"]
    assert not (tmp_path / "w").exists()
    with pytest.raises(SystemExit) as info:
        main(["example1", "--workers", "2", "--out", str(tmp_path / "w")])
    assert info.value.code == 2
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize(
    "mapping",
    [
        {"experiment": "benchmark", "method": "euler"},
        {"experiment": "example1", "method": "euler", "delta": 0.01, "split": 4},
        # grid keys with the exact sampler, sampler keys with a grid method
        {"experiment": "example1", "delta": 0.01},
        {"experiment": "example1", "horizon": 3.0},
        {"experiment": "example1", "method": "euler", "delta": 0.01, "max_proposals": 7},
        {"experiment": "example2", "delta": 0.01},
        {"experiment": "sample", **_SAMPLE, "delta": 0.01},
        {"experiment": "example2", "method": "euler", "delta": 0.01, "epsilon": 0.1},
        {"experiment": "example2", "method": "euler", "delta": 0.01, "max_proposals": 7},
        {"experiment": "sample", **_SAMPLE, "method": "euler", "delta": 0.01, "epsilon": 0.1},
        {"experiment": "sample", **_SAMPLE, "method": "euler", "delta": 0.01, "max_proposals": 7},
        # a line threshold has no curvy iteration for epsilon to stop
        {"experiment": "sample", **_SAMPLE, "epsilon": 0.5},
        # the neuron counts `trials`, which silently won over an `n`
        {"experiment": "neuron", "n": 3},
        # a grid width above the grid horizon fails before the exact batch runs
        {"experiment": "benchmark", "deltas": [16.0], "horizon": 8.0},
    ],
)
def test_main_exit_code_2_on_ignored_config_keys(tmp_path, capsys, mapping):
    # the benchmark always runs the exact sampler and both grids, and grid
    # methods have no stages to split: both keys would be echoed but unused
    _assert_refused(tmp_path, capsys, mapping)


def _assert_refused(tmp_path, capsys, mapping, match=None):
    """``mapping`` fails ``resolve_config`` (with a message matching
    ``match``), and ``fpt`` exits 2 on it without leaving an output
    directory."""
    with pytest.raises(ConfigurationError, match=match):
        resolve_config(mapping)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({**mapping, "n": 5, "out": str(tmp_path / "o")}))
    assert main([mapping["experiment"], "--config", str(cfg_file)]) == 2
    assert _stderr_error(capsys)["error"] == "ConfigurationError"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "params, name",
    [
        ({"threshold_params": {"a": "x", "b": 1}}, "threshold_params.a"),
        ({"threshold_params": {"a": True, "b": 1}}, "threshold_params.a"),
        ({"threshold_params": {"a": math.inf, "b": 1}}, "threshold_params.a"),
        ({"drift": "constant", "drift_params": {"c": "x"}}, "drift_params.c"),
        ({"drift": "constant", "drift_params": {"c": math.nan}}, "drift_params.c"),
    ],
)
def test_main_exit_code_2_on_registry_parameters_that_are_not_finite_numbers(
    tmp_path, capsys, params, name
):
    # json reads NaN and Infinity; a registry parameter is checked like any
    # other config number, and the message names it
    mapping = {"experiment": "sample", "drift": "zero", "threshold": "exponential", **params}
    _assert_refused(tmp_path, capsys, mapping, match=rf"^{name} must be a finite number")


@pytest.mark.parametrize(
    "experiment, key", [("example1", "K"), ("example2", "epsilon"), ("neuron", "current")]
)
def test_main_exit_code_2_on_null_config_values(tmp_path, capsys, experiment, key):
    # a given key must hold a valid value; null is not "use the default"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: None, "out": str(tmp_path / "o")}))
    assert main([experiment, "--config", str(cfg_file), "--n", "2"]) == 2
    assert _stderr_error(capsys)["error"] == "ConfigurationError"
    assert not (tmp_path / "o").exists()


def test_readme_lists_each_experiments_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {
        m[1]: [set(re.findall(r"`(\w+)`", cell)) for cell in (m[2], m[3])]
        for m in re.finditer(r"^\| `(\w+)` *\|[^|]*\|([^|]*)\|([^|]*)\|$", readme, re.M)
    }
    assert set(rows) == set(EXPERIMENTS)
    for experiment, cells in rows.items():
        for family, listed in zip(("exact", "grid"), cells):
            accepted = set(_KEYS.get((experiment, family), {})) - set(_RUN)
            assert listed == accepted, (experiment, family)


def test_main_exit_code_2_on_a_growing_exponential_threshold(tmp_path, capsys):
    # beta = exp(t/2) has no upper slope bound, which a curvy proposal below
    # the start needs as its tangent slope
    mapping = {
        "drift": "zero", "threshold": "exponential", "threshold_params": {"a": 1, "b": -0.5},
        "x0": 2.0, "epsilon": 2.0**-20, "horizon": 20.0, "n": 5, "out": str(tmp_path / "o"),
    }
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(mapping))
    assert main(["sample", "--config", str(cfg_file)]) == 2
    assert _stderr_error(capsys)["error"] == "ConfigurationError"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "drift, extra, code, error",
    [
        pytest.param("zero", {}, 0, None, id="zero-0"),
        # the sinusoidal drift meets negative rates on the kappa grid itself
        pytest.param("sinusoidal", {}, 2, "ParameterError", id="sinusoidal-2"),
        # the threshold overflows at the horizon itself: exp(20 * 50) and
        # exp(0.5 * 2000) exceed the largest double
        pytest.param("zero", {"threshold_params": {"a": 1.0, "b": -20.0}, "n": 5}, 3,
                     "DomainError", id="steep-3"),
        pytest.param("zero", {"horizon": 2000}, 3, "DomainError", id="long_horizon-3"),
    ],
)
def test_sample_on_a_threshold_that_grows_past_its_horizon_exits_typed(
    tmp_path, capsys, drift, extra, code, error
):
    # beta = exp(t/2) above x0 = 0: a proposal's line draw can end far past
    # the curvy horizon, where the threshold overflows
    mapping = {"drift": drift, "threshold": "exponential",
               "threshold_params": {"a": 1.0, "b": -0.5}, "n": 50, "out": str(tmp_path / "o"),
               **extra}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(mapping))
    assert main(["sample", "--config", str(cfg_file)]) == code
    if code == 0:
        assert (tmp_path / "o" / "samples.csv").is_file()
        assert json.loads((tmp_path / "o" / "summary.json").read_text())["n"] == 50
        return
    payload = _stderr_error(capsys)
    assert payload["error"] == error
    if error == "DomainError":
        horizon = float(extra.get("horizon", 50.0))
        assert payload["message"] == f"threshold 'exponential' overflows at the horizon {horizon}"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "extra, error",
    [
        pytest.param({"drift": "sinusoidal", "drift_params": {"K": 1.0}, "threshold": "linear",
                      "threshold_params": {"a": -1.0, "b": 0.5}}, "ParameterError",
                     id="negative_rates"),
        pytest.param({"drift": "zero", "threshold": "constant", "threshold_params": {"level": 0.0}},
                     "ConfigurationError", id="start_on_the_threshold"),
        pytest.param({"drift": "zero", "threshold": "constant", "threshold_params": {"level": 0.0},
                      "method": "euler", "delta": 0.125},
                     "ConfigurationError", id="start_on_the_threshold_euler"),
    ],
)
def test_sample_refuses_a_problem_it_cannot_draw_before_any_draw(tmp_path, capsys, extra, error):
    # rates that go negative on the kappa grid and a start with no side are
    # refused as the problem is built, exit 2, and nothing is written
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n": 200, "out": str(tmp_path / "o"), **extra}))
    assert main(["sample", "--config", str(cfg_file)]) == 2
    assert _stderr_error(capsys)["error"] == error
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment", ["example1", "example2"])
def test_main_exit_code_2_on_a_drift_constant_whose_square_overflows(
    tmp_path, capsys, experiment
):
    # the rate bound holds (K + 1)^2, which overflows a double at K = 1e300
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"K": 1e300, "n": 5, "out": str(tmp_path / "o")}))
    assert main([experiment, "--config", str(cfg_file)]) == 2
    payload = _stderr_error(capsys)
    assert payload["error"] == "ParameterError"
    assert payload["message"] == "K=1e+300 is too large: (K + 1)^2 overflows"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("method", [{}, {"method": "euler", "delta": 0.01}], ids=["exact", "euler"])
@pytest.mark.parametrize(
    "experiment, mapping, match",
    [
        ("example1", {"K": 1.0, "n": 2000}, "the rates go negative for K=1.0, a=-1.0"),
        ("example2", {"K": 1.5, "n": 20}, "the space rate goes negative for K=1.5"),
    ],
)
def test_main_exit_code_2_on_a_K_whose_rates_go_negative(
    tmp_path, capsys, method, experiment, mapping, match
):
    # the space rate ((K + sin x)^2 + cos x)/2 dips below 0 for K below
    # about 1.577; before any draw, not mid-run with exit 3
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({**mapping, **method, "out": str(tmp_path / "o")}))
    assert main([experiment, "--config", str(cfg_file)]) == 2
    payload = _stderr_error(capsys)
    assert payload["error"] == "ParameterError"
    assert payload["message"].startswith(match)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "experiment, mapping",
    [
        ("example2", {"a": 0.05}),
        ("sample", {"drift": "zero", "threshold": "exponential",
                    "threshold_params": {"a": 0.03, "b": 1.0}}),
    ],
)
def test_main_exit_code_2_on_a_curved_start_within_epsilon(tmp_path, capsys, experiment, mapping):
    # the curvy iteration would stop at once, and every draw would be 0
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({**mapping, "n": 5, "out": str(tmp_path / "o")}))
    assert main([experiment, "--config", str(cfg_file)]) == 2
    payload = _stderr_error(capsys)
    assert payload["error"] == "ConfigurationError"
    assert "lower epsilon" in payload["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "experiment, mapping",
    [
        ("example2", {"a": 0.05}),
        ("sample", {"drift": "zero", "threshold": "exponential",
                    "threshold_params": {"a": 0.03, "b": 1.0}}),
    ],
)
def test_a_grid_run_on_a_curved_start_within_epsilon_succeeds(tmp_path, experiment, mapping):
    # epsilon plays no part in a grid scheme
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({**mapping, "method": "euler", "delta": 0.01, "n": 5,
                                    "out": str(tmp_path / "o")}))
    assert main([experiment, "--config", str(cfg_file)]) == 0
    rows = (tmp_path / "o" / "samples.csv").read_text().splitlines()[1:]
    assert len(rows) == 5
    assert all(float(row.split(",")[1]) > 0.0 for row in rows)


@pytest.mark.parametrize("experiment, mapping", [
    ("example1", {"n": 5}),
    ("neuron", {"trials": 1, "horizon": 0.2}),
    ("benchmark", {"n": 5, "deltas": [0.25], "horizon": 2.0}),
], ids=["example1", "neuron", "benchmark"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_a_file"])
def test_main_exit_code_2_on_an_unusable_output_directory(tmp_path, capsys, experiment, mapping,
                                                         under):
    # a file where the directory should go, or a directory under a file
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "sub" if under else taken
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(mapping))
    assert main([experiment, "--config", str(cfg_file), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigurationError"
    assert payload["exit_code"] == 2
    assert payload["message"].startswith(f"cannot write the artifacts to {str(out)!r}: ")
    assert taken.read_text() == "kept\n"


def test_a_run_failing_while_it_samples_leaves_no_output_directory(tmp_path, capsys):
    # the leaky membrane at zero current fails in its first stage
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps({"tau_m": 1.0, "current": 0.0, "trials": 1, "out": str(tmp_path / "o")})
    )
    assert main(["neuron", "--config", str(cfg_file)]) == 3
    assert _stderr_error(capsys)["error"] == "AssumptionViolation"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("theta0, v0", [(-0.1, 0.5), (-0.5, 0.2), (0.0, 0.5)])
def test_main_exit_code_2_on_a_nonpositive_theta0(tmp_path, capsys, theta0, v0):
    # the threshold would decay to a baseline the log transform cannot take
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps({"theta0": theta0, "v0": v0, "trials": 1, "out": str(tmp_path / "o")})
    )
    assert main(["neuron", "--config", str(cfg_file)]) == 2
    payload = _stderr_error(capsys)
    assert payload["error"] == "ParameterError"
    assert payload["message"] == f"theta0 must be positive, got {theta0}"
    assert not (tmp_path / "o").exists()


def test_main_exit_code_3_on_domain_errors(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    # the config passes static validation, but beta = exp(t/2) overflows at
    # the curvy horizon
    cfg_file.write_text(json.dumps({"drift": "zero", "threshold": "exponential",
                                    "threshold_params": {"a": 1.0, "b": -0.5}, "horizon": 2000,
                                    "n": 5, "out": str(tmp_path / "o")}))
    code = main(["sample", "--config", str(cfg_file)])
    assert code == 3
    payload = _stderr_error(capsys)
    assert payload["error"] == "DomainError"
    assert payload["exit_code"] == 3


@pytest.mark.parametrize("extra, message", [
    ({"delta": -3.0, "current": 20}, "delta must be >= 0, got -3.0"),
    ({"v_reset": 1.5, "delta": 0.25},
     "v_reset = 1.5 must be below every post-spike threshold level, whose infimum is 1.25"),
])
def test_main_exit_code_2_on_a_threshold_that_can_fall_to_the_reset(tmp_path, capsys, extra,
                                                                    message):
    # a negative adaptation, or a reset voltage not below the post-spike
    # threshold, is refused before any spike instead of failing at one
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({**extra, "trials": 1, "out": str(tmp_path / "o")}))
    assert main(["neuron", "--config", str(cfg_file)]) == 2
    payload = _stderr_error(capsys)
    assert (payload["error"], payload["message"]) == ("ParameterError", message)
    assert not (tmp_path / "o").exists()


def test_main_exit_code_3_names_the_stage_window_of_a_leaky_membrane(tmp_path, capsys):
    # a leaky membrane at zero current admits no constant reference drift
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"tau_m": 1, "current": 0, "out": str(tmp_path / "o")}))
    assert main(["neuron", "--config", str(cfg_file)]) == 3
    payload = _stderr_error(capsys)
    assert payload["error"] == "AssumptionViolation"
    message = payload["message"]
    # the first stage spans the horizon (2) plus the proposal slack (5)
    assert "over the stage window [0.0, 7.0]" in message
    assert "worst margin -2.02" in message
    assert "first negative on the piece [0.0, 0.109375]" in message


def test_main_exit_code_4_on_budget_exhaustion(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps({"max_proposals": 1, "n": 200, "out": str(tmp_path / "o")})
    )
    code = main(["example1", "--config", str(cfg_file)])
    assert code == 4
    payload = _stderr_error(capsys)
    assert payload["error"] == "NonTerminationError"


# --- determinism -------------------------------------------------------------------


@pytest.mark.parametrize(
    "mapping",
    [
        {"experiment": "example1", "n": 30, "seed": 11},
        {
            "experiment": "neuron",
            "trials": 3,
            "current": 20.0,
            "horizon": 0.5,
            "seed": 11,
        },
        {
            "experiment": "benchmark",
            "n": 40,
            "deltas": [0.25],
            "horizon": 8.0,
            "seed": 11,
        },
    ],
)
def test_artifacts_are_output_directory_invariant(tmp_path, mapping):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        run_experiment(resolve_config({**mapping, "timing": False, "out": str(out)}))
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
