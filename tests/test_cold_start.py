"""Cold start: which experiments and functions load scipy, seen from a fresh process.

Scipy is imported inside the few functions that use it, so importing the
package and running any CLI experiment never loads it, and neither do the KS
tests.  The pytest process has usually imported scipy through other test
modules already, so every check here runs in a new interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fptsim

#: Prepended to the child's ``PYTHONPATH`` so it imports this very package.
_PACKAGE_ROOT = str(Path(fptsim.__file__).resolve().parents[1])


def _fresh(code: str, *args: str) -> list:
    """Run ``code`` in a new interpreter and decode its last stdout line."""
    path = [_PACKAGE_ROOT, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_RUN_CONFIGS = "\n".join(
    [
        "import json, sys",
        "import fptsim, fptsim.cli",
        "from fptsim.cli import resolve_config, run_experiment",
        "for i, cfg in enumerate(json.loads(sys.argv[1])):",
        "    cfg = {**cfg, 'seed': 7, 'timing': False, 'out': f'{sys.argv[2]}/{i}'}",
        "    run_experiment(resolve_config(cfg))",
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))",
    ]
)

_SAMPLING = [
    {"experiment": "example1", "n": 20},
    {"experiment": "example1", "n": 20, "method": "euler", "delta": 0.0625},
    {"experiment": "example2", "n": 10},
    {"experiment": "neuron", "trials": 1, "horizon": 0.5},
    {
        "experiment": "sample",
        "n": 10,
        "drift": "zero",
        "threshold": "exponential",
        "threshold_params": {"a": 1.0, "b": 1.0},
    },
]


def test_sampling_experiments_never_load_scipy(tmp_path):
    loaded = _fresh(_RUN_CONFIGS, json.dumps(_SAMPLING), str(tmp_path))
    assert loaded == []
    assert all((tmp_path / str(i) / "summary.json").is_file() for i in range(len(_SAMPLING)))


# The benchmark's KS p-values once needed scipy.special.kolmogorov, which
# stats._kolmogorov_sf now ports, so not even scipy.special may load.
def test_benchmark_loads_only_scipy_special(tmp_path):
    benchmark = [{"experiment": "benchmark", "n": 20, "deltas": [0.25]}]
    loaded = _fresh(_RUN_CONFIGS, json.dumps(benchmark), str(tmp_path))
    assert loaded == []
    assert (tmp_path / "0" / "summary.json").is_file()
    assert (tmp_path / "0" / "comparison.csv").is_file()


# Each call is the first of its process; its value must equal the value
# computed here, where scipy is usually loaded already.
_PRELUDE = """
import math
import numpy as np
from fptsim.bm_fpt import constant_level_cdf, inverse_gaussian_cdf
from fptsim.model import GeneralSDE, lamperti_transform
from fptsim.stats import ks_one_sample, ks_two_sample
SDE = GeneralSDE(
    mu=lambda y: 0.2 - 0.5 * y,
    sigma=lambda y: 1.0 + 0.25 * y * y,
    sigma_prime=lambda y: 0.5 * y,
    y0=0.4,
)
XS = np.array([0.11, 0.52, 0.93, 1.37, 2.05, 0.07, 3.4])
YS = np.array([0.2, 0.61, 1.8, 2.9, 0.33])
"""

_FIRST_CALLS = {
    "lamperti_transform": (
        "(lambda u: [u.x0, u.alpha(0.3), u.alpha(-0.8), u.A(0.3), u.A(-0.8)])"
        "(lamperti_transform(SDE, 0.1))"
    ),
    "inverse_gaussian_cdf": "inverse_gaussian_cdf([0.0, 0.4, 1.0, 2.5], 1.5, 2.0).tolist()",
    "constant_level_cdf": "constant_level_cdf([0.0, 0.4, 1.0, 2.5], 0.7).tolist()",
}

_SCIPY_FREE_CALLS = {
    "ks_one_sample": "ks_one_sample(XS, lambda v: 1.0 - math.exp(-v))",
    "ks_two_sample": "ks_two_sample(XS, YS)",
}


def _first_call(expr: str) -> tuple[bool, bool]:
    """Scipy loaded before and after ``expr`` in a fresh process, whose value
    must equal the value of ``expr`` here."""
    code = "\n".join(
        [
            "import json, sys",
            _PRELUDE,
            "before = 'scipy' in sys.modules",
            f"value = {expr}",
            "print(json.dumps([before, 'scipy' in sys.modules, value]))",
        ]
    )
    before, after, value = _fresh(code)
    namespace: dict = {}
    exec(_PRELUDE, namespace)
    assert value == json.loads(json.dumps(eval(expr, namespace)))
    return before, after


@pytest.mark.parametrize("site", sorted(_FIRST_CALLS))
def test_first_call_loads_scipy_and_matches_in_process_value(site):
    assert _first_call(_FIRST_CALLS[site]) == (False, True)


@pytest.mark.parametrize("site", sorted(_SCIPY_FREE_CALLS))
def test_ks_tests_load_no_scipy_and_match_in_process_value(site):
    assert _first_call(_SCIPY_FREE_CALLS[site]) == (False, False)
