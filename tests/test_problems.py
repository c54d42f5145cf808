"""Preconfigured problems and the name-based problem registry."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fptsim.bm_fpt import inverse_gaussian_cdf
from fptsim.errors import ConfigurationError, ParameterError
from fptsim.exact import expected_proposals, sample_batch
from fptsim.model import _rate_ceiling, linear_threshold
from fptsim.problems import (
    DRIFT_REGISTRY,
    THRESHOLD_REGISTRY,
    _space_rate_floor,
    build_custom_problem,
    example1_kappa,
    example1_problem,
    example2_kappa,
    example2_problem,
    exponential_threshold,
    sinusoidal_sde,
)
from fptsim.stats import ks_one_sample


def test_example1_kappa_closed_form():
    K, a = 1.6, -1.0
    manual = -a * (K + 1.0) + ((K + 1.0) ** 2 + 1.0) / 2.0
    assert example1_kappa() == pytest.approx(manual, rel=1e-15)
    assert example1_kappa() == pytest.approx(6.48, rel=1e-12)


def test_example2_kappa_closed_form():
    K, a, b = 1.6, 1.0, 1.0
    g = math.sqrt(2.0 * _space_rate_floor(K))
    # the closed form, up to a rounding margin of order 1e-14 relative
    manual = a * b * (K + math.sin(a) - g) + ((K + 1.0) ** 2 + 1.0 - g * g) / 2.0
    assert example2_kappa() == pytest.approx(manual, rel=1e-13)
    assert example2_kappa() > manual
    assert example2_kappa() == pytest.approx(6.117054944877693, rel=1e-15)
    # past pi/2 the time rate is bounded by a*b*(K + 1 - g)
    manual = 2.0 * (K + 1.0 - g) + ((K + 1.0) ** 2 + 1.0 - g * g) / 2.0
    assert example2_kappa(K, 2.0, 1.0) == pytest.approx(manual, rel=1e-13)


def test_example1_problem_wiring():
    prob = example1_problem()
    assert prob.threshold.linear == (-1.0, 0.5)
    assert prob._kernel.sign == 1.0
    assert prob.curvy is None
    assert prob.gammas.kappa == pytest.approx(example1_kappa(), rel=1e-15)
    assert prob.sde.x0 == 0.0
    assert prob.max_proposals == 10**6


def test_example1_expected_proposals_value():
    # exp(A(0.5) - A(0)) with A(x) = K*x - cos(x)
    assert expected_proposals(example1_problem()) == pytest.approx(
        2.515363782220287, abs=1e-9
    )


def test_example2_problem_wiring():
    prob = example2_problem()
    assert prob.threshold.linear is None
    assert prob._kernel.sign == 1.0
    assert prob.threshold.beta(0.0) == pytest.approx(1.0, rel=1e-15)
    g = math.sqrt(2.0 * _space_rate_floor(1.6))
    assert g == pytest.approx(0.18694232372953276, rel=1e-12)
    assert prob.gammas.reference_drift == g
    cp = prob.curvy
    assert cp is not None
    assert cp.epsilon == 2.0**-4
    # the curvy lines take the frame's inf_slope, beta' - g at t = 0
    assert prob._kernel.curvy[0].inf_slope == -1.0 - g
    assert cp.horizon == 50.0
    assert prob.gammas.kappa == pytest.approx(example2_kappa(), rel=1e-15)
    # exp(A(a) - A(x0) - g*(a - x0)) with A(x) = K*x - cos(x)
    assert expected_proposals(prob) == pytest.approx(
        math.exp(1.6 - math.cos(1.0) + 1.0 - g), rel=1e-14
    )
    assert expected_proposals(prob) == pytest.approx(6.506198711571242, rel=1e-12)


_DENSE_X = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 400_001)


@pytest.mark.parametrize("K", [-3.0, 0.0, 1.0, 1.5, 1.5775, 1.6, 2.0, 7.3, 1e3, 1e8])
def test_space_rate_floor_lies_below_the_rate(K):
    floor = _space_rate_floor(K)
    dense = 0.5 * ((K + np.sin(_DENSE_X)) ** 2 + np.cos(_DENSE_X))
    assert floor <= float(dense.min())
    # and close to it: the margins are small beside the rate's size
    assert float(dense.min()) - floor <= 1e-4 * max(1.0, abs(K)) ** 2


@pytest.mark.parametrize("K", [1.5775, 1.6, 2.0, 7.3, 1e3, 1e8])
@pytest.mark.parametrize("a", [1.0, 2.5, 5.0])
def test_example2_rates_at_the_reference_drift_stay_in_zero_to_kappa(K, a):
    prob = example2_problem(K=K, a=a, b=0.7)
    gammas = prob.gammas
    g1 = gammas.gamma1(np.linspace(0.0, 30.0, 20_001))
    g2 = gammas.gamma2(_DENSE_X)
    assert float(g2.min()) >= 0.0
    assert float(g1.min()) >= 0.0
    assert float(g1.max()) + float(g2.max()) <= _rate_ceiling(gammas.kappa)
    # g* is the largest such drift, up to the floor's margins
    assert float(g2.min()) <= 1e-4 * K * K


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: example1_kappa(K=1.0), "the rates go negative"),
        (lambda: example1_kappa(K=1.2, a=-0.1), "the rates go negative"),
        (lambda: example1_kappa(K=0.5), "the rate bound needs K >= 1"),
        (lambda: example1_problem(K=1.0), "the rates go negative"),
        (lambda: example2_kappa(K=1.5), "the space rate goes negative"),
        (lambda: example2_problem(K=1.5), "the space rate goes negative"),
        (lambda: example2_problem(K=1.0), "the space rate goes negative"),
    ],
)
def test_example_bounds_refuse_a_K_whose_rates_go_negative(build, match):
    with pytest.raises(ParameterError, match=match):
        build()


def test_example1_runs_where_the_time_rate_covers_the_space_rate():
    # floor(1.5) < 0, but |a|*(K - 1) = 0.5 lifts the rate sum above 0
    assert _space_rate_floor(1.5) < 0.0
    assert example1_kappa(K=1.5) == pytest.approx(2.5 + (2.5**2 + 1.0) / 2.0, rel=1e-15)
    draws = sample_batch(example1_problem(K=1.5), 200, 5)
    assert all(d.finite for d in draws)


def test_sinusoidal_sde_antiderivative_consistency():
    sde = sinusoidal_sde()
    for x in (-1.0, 0.0, 0.4, 2.0):
        assert sde.alpha(x) == pytest.approx(1.6 + math.sin(x), rel=1e-15)
        assert sde.alpha_prime(x) == pytest.approx(math.cos(x), rel=1e-15)
        assert sde.A(x) == pytest.approx(1.6 * x - math.cos(x), rel=1e-14)


def test_registry_names():
    assert set(DRIFT_REGISTRY) == {"sinusoidal", "constant", "zero"}
    assert set(THRESHOLD_REGISTRY) == {"linear", "constant", "exponential"}


def test_build_custom_zero_drift_falling_line_matches_ig():
    prob = build_custom_problem("zero", {}, "linear", {"a": -0.5, "b": 1.0})
    assert prob._kernel.sign == 1.0
    x = np.array([d.time for d in sample_batch(prob, 10000, 60)])
    d, p = ks_one_sample(x, lambda t: inverse_gaussian_cdf(t, 2.0, 1.0))
    assert p > 0.01


def test_build_custom_constant_drift_to_level_matches_ig():
    prob = build_custom_problem("constant", {"c": 1.0}, "constant", {"level": 1.0})
    x = np.array([d.time for d in sample_batch(prob, 10000, 61)])
    d, p = ks_one_sample(x, lambda t: inverse_gaussian_cdf(t, 1.0, 1.0))
    assert p > 0.01


def test_build_custom_infers_below_start():
    prob = build_custom_problem("zero", {}, "linear", {"a": 0.5, "b": -1.0})
    assert prob._kernel.sign == -1.0
    x = np.array([d.time for d in sample_batch(prob, 10000, 62)])
    d, p = ks_one_sample(x, lambda t: inverse_gaussian_cdf(t, 2.0, 1.0))
    assert p > 0.01


def test_build_custom_rejects_unknown_names_and_bad_params():
    with pytest.raises(ConfigurationError):
        build_custom_problem("ornstein", {}, "linear", {"a": -1.0, "b": 0.5})
    with pytest.raises(ConfigurationError):
        build_custom_problem("zero", {}, "parabola", {})
    with pytest.raises(ConfigurationError):
        build_custom_problem("constant", {"speed": 2.0}, "constant", {"level": 1.0})
    with pytest.raises(ConfigurationError):
        build_custom_problem("zero", {}, "linear", {"a": -1.0})  # missing b
    with pytest.raises(ConfigurationError):
        build_custom_problem("zero", {}, "constant", {"level": 0.0})  # starts at x0


@pytest.mark.parametrize("a, b", [(math.inf, 1.0), (-1.0, math.nan), (-math.inf, 1.0)])
def test_a_line_with_a_non_finite_parameter_is_refused(a, b):
    with pytest.raises(ParameterError, match="a and b must be finite"):
        linear_threshold(a, b)
    with pytest.raises(ParameterError, match="a and b must be finite"):
        build_custom_problem("zero", {}, "linear", {"a": a, "b": b})


def test_example_builders_reject_wrong_side_starts():
    with pytest.raises(ParameterError):
        example1_problem(b=0.0)
    with pytest.raises(ParameterError):
        example2_problem(a=-1.0)


def test_exponential_threshold_slope_bounds():
    th = exponential_threshold(1.0, 1.0)
    assert th.inf_slope == pytest.approx(-1.0, rel=1e-15)
    assert th.sup_slope == pytest.approx(0.0, abs=1e-15)
    assert th.beta(2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)


@pytest.mark.parametrize("a, bounds", [(1.0, (0.0, None)), (-1.0, (None, 0.0))])
def test_growing_exponential_threshold_drops_its_unbounded_slope_side(a, bounds):
    # b < 0: beta' = -a*b*exp(|b|*t) leaves every bound on the side of -a*b
    th = exponential_threshold(a, -0.5)
    assert (th.inf_slope, th.sup_slope) == bounds
    th.validate_slopes(np.linspace(0.0, 20.0, 81))


def test_build_custom_builds_its_registry_threshold_once(monkeypatch):
    calls = []
    exponential = THRESHOLD_REGISTRY["exponential"]
    monkeypatch.setitem(
        THRESHOLD_REGISTRY, "exponential", lambda **kw: calls.append(kw) or exponential(**kw)
    )
    prob = build_custom_problem("zero", {}, "exponential", {"a": 1.0, "b": 1.0}, x0=2.0)
    assert len(calls) == 1
    assert prob._kernel.sign == -1.0


@pytest.mark.parametrize(
    "name, fn, xs",
    [
        ("alpha", sinusoidal_sde(1.6).alpha, np.linspace(-20.0, 20.0, 1001)),
        ("alpha_prime", sinusoidal_sde(1.6).alpha_prime, np.linspace(-20.0, 20.0, 1001)),
        ("A", sinusoidal_sde(1.6).A, np.linspace(-20.0, 20.0, 1001)),
        ("beta", exponential_threshold(1.3, 0.7).beta, np.linspace(0.0, 50.0, 1001)),
        ("beta_prime", exponential_threshold(1.3, 0.7).beta_prime, np.linspace(0.0, 50.0, 1001)),
    ],
)
def test_problem_callables_are_scalar_floats_and_numpy_polymorphic(name, fn, xs):
    scalar = [fn(x) for x in xs.tolist()]
    assert all(type(v) is float for v in scalar), name
    array = fn(xs)
    assert isinstance(array, np.ndarray) and array.shape == xs.shape
    np.testing.assert_allclose(array, scalar, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize(
    "K, threshold, params",
    [(1.0, "linear", {"a": -1.0, "b": 0.5}), (1.5, "exponential", {"a": 1.0, "b": 1.0})],
    ids=["line_K1", "exponential_K1.5"],
)
def test_build_custom_refuses_rates_that_go_negative_on_the_kappa_grid(K, threshold, params):
    # gamma2 of the drift K + sin(x) dips below 0 for these K, and gamma1
    # does not make up for it: a draw would abort at its first negative rate
    with pytest.raises(ParameterError, match=r"^the rates go negative on the kappa grid: "
                                             r"min gamma1 \+ min gamma2 = -"):
        build_custom_problem("sinusoidal", {"K": K}, threshold, params)
