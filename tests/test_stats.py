"""Summary statistics and the KS / bias helpers against scipy references."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

from fptsim.stats import (
    _kolmogorov_sf,
    density_curve,
    ks_one_sample,
    ks_two_sample,
    moment_bias,
    summarize,
)


def test_summarize_known_values():
    x = np.array([1.0, 2.0, 3.0, 4.0, math.inf])
    s = summarize(x)
    assert s.n == 5
    assert s.finite_fraction == pytest.approx(0.8)
    assert s.mean == pytest.approx(2.5)
    assert s.variance == pytest.approx(np.var([1, 2, 3, 4], ddof=1))
    assert s.std == pytest.approx(math.sqrt(s.variance))
    assert (s.min, s.max) == (1.0, 4.0)
    assert s.median == pytest.approx(2.5)
    assert s.q25 == pytest.approx(1.75)
    assert s.q75 == pytest.approx(3.25)
    d = s.as_dict()
    assert d["mean"] == s.mean and d["n"] == 5


def test_summarize_all_censored_is_degenerate_but_total():
    s = summarize(np.array([math.inf, math.inf]))
    assert s.finite_fraction == 0.0
    assert math.isnan(s.mean)


def test_ks_two_sample_matches_scipy():
    rng = np.random.default_rng(21)
    x = rng.exponential(size=400)
    y = rng.exponential(size=300) * 1.2
    d, p = ks_two_sample(x, y)
    ref = sps.ks_2samp(x, y, method="asymp")
    assert d == pytest.approx(ref.statistic, abs=1e-12)
    # p is the plain Kolmogorov survival function at D * sqrt(n*m/(n+m));
    # scipy's asymp variant adds a small-sample correction, so only require
    # agreement at the scale that decision thresholds care about
    n_eff = x.size * y.size / (x.size + y.size)
    assert p == special.kolmogorov(d * math.sqrt(n_eff))
    assert p == pytest.approx(ref.pvalue, abs=0.03)


def test_ks_one_sample_matches_scipy():
    rng = np.random.default_rng(22)
    x = rng.normal(size=500)
    d, p = ks_one_sample(x, sps.norm.cdf)
    ref = sps.kstest(x, sps.norm.cdf, method="asymp")
    assert d == pytest.approx(ref.statistic, abs=1e-12)
    assert p == special.kolmogorov(d * math.sqrt(x.size))
    assert p == pytest.approx(ref.pvalue, rel=0.02, abs=1e-9)


def _kolmogorov_points() -> np.ndarray:
    """Both branches, their edges and the values a 100-vs-100 KS test reaches."""
    early = math.pi / math.sqrt(746 * 8)  # the sf is 1 at and below this
    edges = [early, 0.82]
    near = [np.nextafter(e, direction) for e in edges for direction in (0.0, 1.0)]
    return np.concatenate(
        [
            np.linspace(0.0, 12.0, 24_001),
            np.linspace(early - 1e-3, early + 1e-3, 2_001),
            np.linspace(0.81, 0.83, 2_001),
            np.geomspace(1e-300, 0.1, 301),
            np.arange(101) / 100 * math.sqrt(100 * 100 / 200),  # every D * sqrt(50)
            edges,
            near,
            [-0.0, -1.0, -math.inf, 27.0, 40.0, 1e10, 1e300, math.inf],
        ]
    )


def test_kolmogorov_sf_equals_scipy_bit_for_bit():
    xs = _kolmogorov_points()
    ours = np.array([_kolmogorov_sf(float(x)) for x in xs])
    ref = special.kolmogorov(xs)
    differ = ours.view(np.int64) != ref.view(np.int64)
    assert not differ.any(), xs[differ][:5]
    # the grid reaches the early exit, the series underflow and the full range
    assert ours[xs <= math.pi / math.sqrt(746 * 8)].min() == 1.0
    assert ours[xs >= 27.0].max() == 0.0
    assert 0.0 < ours[(xs > 0.5) & (xs < 2.0)].min() < ours[(xs > 0.5) & (xs < 2.0)].max() < 1.0
    assert math.isnan(_kolmogorov_sf(math.nan))


def test_ks_detects_a_shift():
    rng = np.random.default_rng(23)
    x = rng.normal(size=3000)
    y = rng.normal(size=3000) + 0.25
    _, p_diff = ks_two_sample(x, y)
    _, p_same = ks_two_sample(x, rng.normal(size=3000))
    assert p_diff < 1e-6
    assert p_same > 0.01


def test_moment_bias_hand_values():
    approx = np.array([2.0, 6.0])
    exact = np.array([1.0, 3.0])
    b1, b2 = moment_bias(approx, exact)
    assert b1 == pytest.approx(2.0)
    assert b2 == pytest.approx(8.0 - 2.0)  # unbiased variances
    back1, back2 = moment_bias(exact, approx)
    assert (back1, back2) == (-b1, -b2)


def test_moment_bias_is_zero_under_constant_shift():
    exact = np.array([0.3, 1.1, 2.4, 0.9])
    b1, b2 = moment_bias(exact + 0.1, exact)
    assert b1 == pytest.approx(0.1, rel=1e-12)
    assert b2 == pytest.approx(0.0, abs=1e-12)


def test_density_curve_integrates_to_one():
    rng = np.random.default_rng(24)
    x = rng.normal(size=2000)
    grid = np.linspace(-6, 6, 601)
    f = density_curve(x, grid)
    assert np.all(f >= 0)
    assert np.trapezoid(f, grid) == pytest.approx(1.0, abs=0.02)
