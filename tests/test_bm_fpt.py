"""Brownian-motion passage-law samplers against closed-form oracles."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from fptsim.bm_fpt import (
    _LINE_BLOCK,
    CurvyParams,
    FptDraw,
    _linear_time,
    _wald,
    constant_level_cdf,
    inverse_gaussian_cdf,
    linear_hit_probability,
    sample_fpt_constant,
    sample_fpt_curvy,
    sample_fpt_linear,
    sample_inverse_gaussian,
)
from fptsim.errors import AssumptionViolation, ConfigurationError, ParameterError
from fptsim.model import Threshold
from fptsim.rng import block_stream
from fptsim.stats import ks_one_sample, ks_two_sample


def _exp_threshold(sign: float = 1.0) -> Threshold:
    """beta(t) = sign * exp(-t); above-start for sign=+1, below for -1."""
    return Threshold(
        beta=lambda t: sign * math.exp(-t),
        beta_prime=lambda t: -sign * math.exp(-t),
        inf_slope=min(-sign, 0.0),
        sup_slope=max(-sign, 0.0),
    )


def test_fpt_draw_validates_flag_consistency():
    FptDraw(time=1.0, finite=True)
    FptDraw(time=math.inf, finite=False)
    with pytest.raises(ParameterError):
        FptDraw(time=math.inf, finite=True)
    with pytest.raises(ParameterError):
        FptDraw(time=1.0, finite=False)
    with pytest.raises(ParameterError):
        FptDraw(time=-0.5, finite=True)


def test_fpt_draw_refuses_a_nan_time_on_a_censored_record():
    # time >= 0 holds for every record: inf passes, NaN fails (it compares
    # false with inf, so the flag check alone let it through as finite=False)
    assert not FptDraw(time=math.inf, finite=False).finite
    with pytest.raises(ParameterError, match="time must be >= 0"):
        FptDraw(time=math.nan, finite=False)


def test_fpt_draw_replace_runs_the_constructor_checks():
    d = FptDraw(0.5, True)
    assert d._replace(proposals=3) == FptDraw(0.5, True, 3)
    with pytest.raises(ParameterError, match="time must be >= 0"):
        d._replace(time=-0.5)
    with pytest.raises(ParameterError):
        d._replace(finite=False)
    with pytest.raises(ParameterError):
        FptDraw._make((0.5, True, -1, 0, 0))


def test_fpt_draw_is_a_tuple_record_with_the_dataclass_repr():
    d = FptDraw(0.5, True, 3, 2, 1)
    assert d == (0.5, True, 3, 2, 1) and hash(d) == hash((0.5, True, 3, 2, 1))
    assert repr(d) == "FptDraw(time=0.5, finite=True, proposals=3, clock_events=2, line_draws=1)"
    assert d._asdict() == {"time": 0.5, "finite": True, "proposals": 3, "clock_events": 2,
                           "line_draws": 1}
    assert FptDraw._field_defaults == {"proposals": 1, "clock_events": 0, "line_draws": 0}


def test_inverse_gaussian_cdf_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(50):
        mu = float(rng.uniform(0.1, 3.0))
        lam = float(rng.uniform(0.1, 3.0))
        t = rng.uniform(0.01, 10.0, size=7)
        ours = inverse_gaussian_cdf(t, mu, lam)
        ref = sps.invgauss.cdf(t, mu=mu / lam, scale=lam)
        np.testing.assert_allclose(ours, ref, atol=1e-10)


def test_constant_level_cdf_is_reflection_formula():
    t = np.array([0.1, 0.5, 2.0, 10.0])
    ref = 2.0 * sps.norm.cdf(-1.5 / np.sqrt(t))
    np.testing.assert_allclose(constant_level_cdf(t, 1.5), ref, atol=1e-12)


def test_sample_inverse_gaussian_moments():
    rng = np.random.default_rng(2)
    mu, lam = 0.8, 1.7
    x = np.array([sample_inverse_gaussian(mu, lam, rng) for _ in range(40000)])
    se_mean = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - mu) < 3.0 * se_mean
    target_var = mu**3 / lam
    assert abs(x.var(ddof=1) - target_var) < 0.05 * target_var + 3e-3
    d, p = ks_one_sample(x, lambda t: inverse_gaussian_cdf(t, mu, lam))
    assert p > 0.01


def test_constant_level_sampler_matches_reflection_cdf():
    rng = np.random.default_rng(3)
    b = 1.0
    x = np.array([sample_fpt_constant(b, rng).time for _ in range(30000)])
    d, p = ks_one_sample(x, lambda t: constant_level_cdf(t, b))
    assert p > 0.01


def test_constant_level_edge_cases():
    rng = np.random.default_rng(4)
    d = sample_fpt_constant(0.0, rng)  # started on the threshold
    assert d.finite and d.time == 0.0
    with pytest.raises(ParameterError):
        sample_fpt_constant(-1.0, rng)
    with pytest.raises(ParameterError):
        sample_fpt_constant(math.inf, rng)


def test_linear_sampler_falling_line_is_inverse_gaussian():
    rng = np.random.default_rng(5)
    a, b = -1.0, 0.5
    draws = [sample_fpt_linear(a, b, rng) for _ in range(30000)]
    assert all(d.finite for d in draws)
    x = np.array([d.time for d in draws])
    assert abs(x.mean() - (-b / a)) < 3.0 * x.std(ddof=1) / math.sqrt(x.size)
    d, p = ks_one_sample(x, lambda t: inverse_gaussian_cdf(t, -b / a, b * b))
    assert p > 0.01


def test_linear_sampler_rising_line_is_defective():
    rng = np.random.default_rng(6)
    a = b = 1.0
    draws = [sample_fpt_linear(a, b, rng) for _ in range(30000)]
    hit = np.array([d.finite for d in draws])
    p_hit = math.exp(-2.0 * a * b)
    se = math.sqrt(p_hit * (1.0 - p_hit) / hit.size)
    assert abs(hit.mean() - p_hit) < 3.0 * se
    assert linear_hit_probability(a, b) == pytest.approx(p_hit)
    assert all(math.isinf(d.time) for d in draws if not d.finite)


def test_linear_sampler_zero_slope_matches_constant_law():
    rng = np.random.default_rng(7)
    b = 0.8
    x = np.array([sample_fpt_linear(0.0, b, rng).time for _ in range(20000)])
    d, p = ks_one_sample(x, lambda t: constant_level_cdf(t, b))
    assert p > 0.01


def test_linear_sampler_level_near_zero_hits_immediately():
    rng = np.random.default_rng(8)
    x = np.array([sample_fpt_linear(-1.0, 1e-9, rng).time for _ in range(200)])
    assert np.quantile(x, 0.99) < 1e-6


def test_linear_sampler_rejects_nonpositive_intercept():
    rng = np.random.default_rng(9)
    with pytest.raises(ParameterError):
        sample_fpt_linear(-1.0, 0.0, rng)


# --- line-FPT core on scalar streams ----------------------------------------


def _streams(seed: int):
    rng = np.random.default_rng(seed)
    return block_stream(rng.standard_normal, _LINE_BLOCK), block_stream(rng.random, _LINE_BLOCK)


def test_stream_core_falling_line_is_inverse_gaussian():
    normal, uniform = _streams(20)
    a, b = -1.0, 0.5
    x = np.array([_linear_time(a, b, normal, uniform) for _ in range(30000)])
    assert np.all(np.isfinite(x))
    d, p = ks_one_sample(x, lambda t: inverse_gaussian_cdf(t, -b / a, b * b))
    assert p > 0.01


def test_stream_core_flat_line_matches_constant_law():
    normal, uniform = _streams(21)
    b = 0.8
    x = np.array([_linear_time(0.0, b, normal, uniform) for _ in range(20000)])
    d, p = ks_one_sample(x, lambda t: constant_level_cdf(t, b))
    assert p > 0.01


def test_stream_core_rising_line_hit_frequency():
    normal, uniform = _streams(22)
    a, b = 0.6, 0.9
    x = np.array([_linear_time(a, b, normal, uniform) for _ in range(30000)])
    hit = np.isfinite(x)
    p_hit = linear_hit_probability(a, b)
    se = math.sqrt(p_hit * (1.0 - p_hit) / x.size)
    assert abs(hit.mean() - p_hit) < 3.0 * se
    assert np.all(x[hit] >= 0.0)


def test_stream_core_tiny_intercept_is_never_negative():
    normal, uniform = _streams(23)
    x = np.array([_linear_time(-1.0, 1e-9, normal, uniform) for _ in range(5000)])
    assert np.all(x >= 0.0)
    assert np.quantile(x, 0.99) < 1e-6


def test_stream_wald_matches_numpy_wald():
    normal, uniform = _streams(24)
    mu, lam = 0.7, 2.3
    ours = np.array([_wald(mu, lam, normal, uniform) for _ in range(20000)])
    ref = np.random.default_rng(25).wald(mu, lam, 20000)
    d, p = ks_two_sample(ours, ref)
    assert p > 0.01


@pytest.mark.parametrize("a", [-1.0, 0.0, 1.0], ids=["falling", "flat", "rising"])
def test_stream_core_values_are_plain_floats(a):
    normal, uniform = _streams(26)
    assert all(type(_linear_time(a, 0.5, normal, uniform)) is float for _ in range(200))
    assert all(type(sample_fpt_linear(a, 0.5, np.random.default_rng(k)).time) is float
               for k in range(50))
    rng = np.random.default_rng(27)
    assert all(type(sample_inverse_gaussian(0.5, 1.5, rng)) is float for _ in range(50))


# --- curvy iteration ---------------------------------------------------------


def test_curvy_constant_threshold_is_exact_in_one_iteration():
    rng = np.random.default_rng(10)
    level = 1.3
    th = Threshold(
        beta=lambda t: level,
        beta_prime=lambda t: 0.0,
        inf_slope=0.0,
        sup_slope=0.0,
    )
    horizon = 200.0
    params = CurvyParams(epsilon=2.0**-4, horizon=horizon)
    draws = [sample_fpt_curvy(th, params, rng) for _ in range(20000)]
    assert all(d.clock_events == 1 for d in draws)
    # the passage law to a constant level is heavy-tailed, so a few draws are
    # capped at the horizon; compare against the conditional law given a hit
    x = np.array([d.time for d in draws if d.time < horizon])
    mass = constant_level_cdf(horizon, level)
    assert x.size / len(draws) == pytest.approx(mass, abs=0.02)
    d, p = ks_one_sample(x, lambda t: constant_level_cdf(t, level) / mass)
    assert p > 0.01


def test_curvy_linear_threshold_with_tangent_slope_is_exact():
    rng = np.random.default_rng(11)
    a, b = -0.7, 0.9
    th = Threshold(
        beta=lambda t: a * t + b,
        beta_prime=lambda t: a,
        inf_slope=a,
        sup_slope=a,
    )
    params = CurvyParams(epsilon=2.0**-4, horizon=500.0)
    x = np.array([sample_fpt_curvy(th, params, rng).time for _ in range(15000)])
    rng_ref = np.random.default_rng(12)
    y = np.array([sample_fpt_linear(a, b, rng_ref).time for _ in range(15000)])
    d, p = ks_two_sample(x, y)
    assert p > 0.01


def test_curvy_iterates_are_nested_monotone_in_epsilon():
    # with a shared stream, the eps=2^-6 run continues the eps=2^-4 iteration,
    # so per-path times can only grow as epsilon shrinks
    th = _exp_threshold()
    coarse = CurvyParams(epsilon=2.0**-4, horizon=50.0)
    fine = CurvyParams(epsilon=2.0**-6, horizon=50.0)
    for seed in range(300):
        t_coarse = sample_fpt_curvy(th, coarse, np.random.default_rng(seed)).time
        t_fine = sample_fpt_curvy(th, fine, np.random.default_rng(seed)).time
        assert t_fine >= t_coarse - 1e-15


def test_curvy_self_convergence_in_epsilon():
    th = _exp_threshold()
    n = 5000
    distances = []
    for k in (2, 3, 4, 5):
        a = np.array(
            [
                sample_fpt_curvy(
                    th, CurvyParams(2.0**-k, 50.0), np.random.default_rng(1000 + i)
                ).time
                for i in range(n)
            ]
        )
        b = np.array(
            [
                sample_fpt_curvy(
                    th,
                    CurvyParams(2.0 ** -(k + 1), 50.0),
                    np.random.default_rng(5000 + i),
                ).time
                for i in range(n)
            ]
        )
        d, _ = ks_two_sample(a, b)
        distances.append(d)
    assert all(d2 < d1 for d1, d2 in zip(distances, distances[1:]))


def test_curvy_below_start_reflects_the_above_start_law():
    above = _exp_threshold(+1.0)
    below = _exp_threshold(-1.0)
    params = CurvyParams(epsilon=2.0**-4, horizon=50.0)
    for seed in range(200):
        t_above = sample_fpt_curvy(above, params, np.random.default_rng(seed)).time
        t_below = sample_fpt_curvy(below, params, np.random.default_rng(seed)).time
        assert t_below == pytest.approx(t_above, abs=1e-12)


def test_curvy_horizon_censoring_returns_the_horizon():
    # a threshold that recedes faster than the allowed slope can chase it
    th = Threshold(
        beta=lambda t: 1.0 + t,
        beta_prime=lambda t: 1.0,
        inf_slope=1.0,
        sup_slope=1.0,
    )
    params = CurvyParams(epsilon=2.0**-4, horizon=5.0)
    censored = 0
    for seed in range(200):
        d = sample_fpt_curvy(th, params, np.random.default_rng(seed))
        assert d.finite
        assert d.time <= 5.0 + 1e-12
        censored += d.time >= 5.0 - 1e-12
    assert censored > 0


def test_curvy_reads_a_growing_threshold_on_its_horizon_only():
    # beta = exp(t/2) grows without bound, and a heavy-tailed flat-line draw
    # can end far past the horizon, where math.exp would overflow; the line
    # is checked at the horizon instead.  The declared inf_slope 0 is a loose
    # lower bound of beta' >= 0.5, so the lines are flat
    horizon = 2.0

    def beta(t):
        if t > horizon:
            raise AssertionError(f"threshold read at t={t}, past the horizon")
        return math.exp(0.5 * t)

    th = Threshold(beta=beta, beta_prime=lambda t: 0.5 * math.exp(0.5 * t),
                   inf_slope=0.0, sup_slope=None)
    params = CurvyParams(epsilon=2.0**-4, horizon=horizon)
    times = [sample_fpt_curvy(th, params, np.random.default_rng(seed)).time for seed in range(200)]
    assert all(0.0 < t <= horizon for t in times)
    assert 0 < times.count(horizon) < len(times)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_curvy_lines_take_the_inf_slope_of_the_frame(sign):
    # exp(-t), declared with the loose slope bound -2 (its reflection with
    # sup_slope 2), runs lines of slope -2, as a reference iteration does;
    # a frame without an inf_slope has no line slope and is refused
    loose, unbounded = ({"inf_slope": -2.0}, {"inf_slope": None}) if sign > 0 else (
        {"sup_slope": 2.0}, {"sup_slope": None})
    th = replace(_exp_threshold(sign), **loose)
    params = CurvyParams(epsilon=2.0**-8, horizon=50.0)
    for seed in range(20):
        d = sample_fpt_curvy(th, params, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        normal = block_stream(rng.standard_normal, _LINE_BLOCK)
        uniform = block_stream(rng.random, _LINE_BLOCK)
        T, H, lines = 0.0, 1.0, 0
        while H > params.epsilon and T < params.horizon:
            g = _linear_time(-2.0, H, normal, uniform)
            H = math.exp(-(T + g)) - math.exp(-T) + 2.0 * g
            T += g
            lines += 1
        assert (d.time, d.clock_events) == (min(T, params.horizon), lines)
    with pytest.raises(ConfigurationError, match="^curvy proposals need a bounded threshold slope$"):
        sample_fpt_curvy(replace(th, **unbounded), params, np.random.default_rng(15))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_curvy_with_the_start_gap_draws_the_same_time(sign):
    # a caller that hands in the frame's start gap gets the same draw on
    # equal streams; the below-start case hands in the reflected frame
    th = _exp_threshold(sign)
    frame = th.proposal_frame()
    params = CurvyParams(epsilon=2.0**-10, horizon=50.0)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        checked = sample_fpt_curvy(th, params, rng, normal=block_stream(rng.standard_normal, 16),
                                   uniform=block_stream(rng.random, 16))
        rng = np.random.default_rng(seed)
        given = sample_fpt_curvy(frame, params, rng, normal=block_stream(rng.standard_normal, 16),
                                 uniform=block_stream(rng.random, 16), gap=frame.beta(0.0))
        assert given == checked
        assert checked.clock_events >= 1


def test_curvy_overstated_inf_slope_raises_instead_of_returning_a_time():
    # beta' runs over [-1, 0), but the threshold claims it never falls: each
    # flat line ends above the falling threshold, a negative final gap
    th = Threshold(
        beta=lambda t: math.exp(-t),
        beta_prime=lambda t: -math.exp(-t),
        inf_slope=0.0,
        sup_slope=0.0,
    )
    params = CurvyParams(epsilon=2.0**-4, horizon=50.0)
    for seed in range(5):
        with pytest.raises(AssumptionViolation, match="overshot"):
            sample_fpt_curvy(th, params, np.random.default_rng(seed))


def test_curvy_params_validation():
    with pytest.raises(ParameterError):
        CurvyParams(epsilon=0.0)
    with pytest.raises(ParameterError):
        CurvyParams(epsilon=0.1, horizon=0.0)


def _receding_line() -> Threshold:
    # the loose lower slope bound 0.1 keeps the lines below the threshold,
    # so the iteration takes more than one line
    return Threshold(
        beta=lambda t: 1.0 + 0.2 * t,
        beta_prime=lambda t: 0.2,
        inf_slope=0.1,
        sup_slope=0.2,
    )


@pytest.mark.parametrize(
    "threshold, params",
    [
        (_exp_threshold(+1.0), CurvyParams(epsilon=2.0**-10, horizon=50.0)),
        (_exp_threshold(-1.0), CurvyParams(epsilon=2.0**-10, horizon=50.0)),
        (_receding_line(), CurvyParams(epsilon=2.0**-4, horizon=5.0)),
    ],
    ids=["above", "below", "rising"],
)
def test_curvy_given_streams_equal_its_own_streams(threshold, params):
    for seed in range(100):
        own = sample_fpt_curvy(threshold, params, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        normal = block_stream(rng.standard_normal, _LINE_BLOCK)
        uniform = block_stream(rng.random, _LINE_BLOCK)
        unused = np.random.default_rng(10**6 + seed)
        given = sample_fpt_curvy(threshold, params, unused, normal=normal, uniform=uniform)
        assert given == own
        assert type(given.time) is float


def test_curvy_matches_reference_iteration_with_one_threshold_call_per_line():
    # the reference re-evaluates both ends of every step; the sampler carries
    # beta(T) over, so it must give the same times from the same streams
    calls = []

    def beta(t):
        calls.append(t)
        return math.exp(-t)

    th = Threshold(
        beta=beta,
        beta_prime=lambda t: -math.exp(-t),
        inf_slope=-1.0,
        sup_slope=0.0,
    )
    params = CurvyParams(epsilon=2.0**-12, horizon=50.0)
    for seed in range(50):
        calls.clear()
        d = sample_fpt_curvy(th, params, np.random.default_rng(seed))
        assert len(calls) == d.clock_events + 1
        rng = np.random.default_rng(seed)
        normal = block_stream(rng.standard_normal, _LINE_BLOCK)
        uniform = block_stream(rng.random, _LINE_BLOCK)
        T, H, lines = 0.0, 1.0, 0
        while H > params.epsilon and T < params.horizon:
            g = _linear_time(-1.0, H, normal, uniform)
            H = math.exp(-(T + g)) - math.exp(-T) + g
            T += g
            lines += 1
        assert (d.time, d.clock_events) == (min(T, params.horizon), lines)


def test_curvy_needs_both_streams_or_neither():
    th = _exp_threshold()
    params = CurvyParams(epsilon=2.0**-4, horizon=50.0)
    rng = np.random.default_rng(14)
    normal = block_stream(rng.standard_normal, _LINE_BLOCK)
    uniform = block_stream(rng.random, _LINE_BLOCK)
    with pytest.raises(ParameterError):
        sample_fpt_curvy(th, params, rng, normal=normal)
    with pytest.raises(ParameterError):
        sample_fpt_curvy(th, params, rng, uniform=uniform)
