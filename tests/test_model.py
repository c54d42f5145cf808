"""Process/threshold descriptions, rate pairs, and the unit-diffusion transform."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fptsim.baselines as baselines_module
import fptsim.bm_fpt as bm_fpt_module
from fptsim.baselines import (
    GridScheme,
    coupled_euler_pair,
    coupled_grid_times,
    euler_fpt,
    improved_euler_fpt,
)
from fptsim.bm_fpt import CurvyParams, sample_fpt_curvy
from fptsim.errors import (
    AssumptionViolation,
    ConfigurationError,
    DomainError,
    ParameterError,
)
from fptsim.exact import ExactProblem
from fptsim.model import (
    GammaPair,
    GeneralSDE,
    Threshold,
    UnitDiffusionSDE,
    constant_threshold,
    estimate_kappa,
    lamperti_transform,
    linear_threshold,
    make_gamma_pair,
    validate_unit_sde,
)
from fptsim.problems import exponential_threshold, sinusoidal_sde

RNG = np.random.default_rng(20240817)


def test_linear_threshold_fields_and_slopes():
    th = linear_threshold(-1.0, 0.5)
    assert th.linear == (-1.0, 0.5)
    assert th.beta(0.0) == 0.5
    assert th.beta(2.0) == pytest.approx(-1.5)
    assert th.inf_slope == th.sup_slope == -1.0
    th.validate_slopes(np.linspace(0.0, 10.0, 50))


def test_constant_threshold_is_flat():
    th = constant_threshold(2.0)
    assert th.beta(3.7) == 2.0
    assert th.beta_prime(3.7) == 0.0
    assert th.linear == (0.0, 2.0)


def test_validate_start_refuses_a_start_on_the_threshold_or_a_non_finite_threshold():
    th = linear_threshold(0.0, 1.0)
    # a start on either side of beta(0) is one the threshold is passed from
    th.validate_start(0.0)
    th.validate_start(2.0)
    with pytest.raises(ConfigurationError, match=r"^the start x0=1\.0 lies on the threshold: "
                                                 r"beta\(0\)=1\.0$"):
        th.validate_start(1.0)
    for b0 in (math.nan, math.inf, -math.inf):
        # linear_threshold refuses such a level itself, so build the curve
        curve = Threshold(beta=lambda t, b0=b0: b0, beta_prime=lambda t: 0.0)
        with pytest.raises(DomainError, match="is not finite"):
            curve.validate_start(0.0)


class _ZeroNormals:
    """A generator stand-in for the Euler walks: zero normals, and the given
    uniforms in order, then 1.0 (which never fires a bridge test)."""

    def __init__(self, uniforms):
        self._uniforms = list(uniforms)

    def standard_normal(self, size):
        return np.zeros(size)

    def random(self, size):
        head, self._uniforms = self._uniforms[:size], self._uniforms[size:]
        return np.array(head + [1.0] * (size - len(head)))


@pytest.mark.parametrize("side", [1.0, -1.0])
@pytest.mark.parametrize("g", [0.0, 0.7])
def test_every_sampler_places_its_start_by_validate_start(monkeypatch, side, g):
    x0 = 0.3
    th = constant_threshold(x0 + 1.2 * side)
    sign, gap = th.validate_start(x0)
    assert sign == side and gap == pytest.approx(1.2, rel=1e-14)
    sde = UnitDiffusionSDE(alpha=lambda x: 0.0, alpha_prime=lambda x: 0.0, A=lambda x: 0.0, x0=x0)
    kernel = ExactProblem(sde, th, make_gamma_pair(sde, th, g).with_kappa(1.0))._kernel
    assert (kernel.sign, kernel.delta) == (sign, gap)
    assert th.proposal_frame(x0, g).beta(0.0) == gap
    # the standalone curvy iteration sees the threshold from 0; its first
    # line starts at the gap
    heights = []

    def no_passage(a, b, normal, uniform):
        heights.append(b)
        return math.inf

    monkeypatch.setattr(bm_fpt_module, "_linear_time", no_passage)
    shifted = constant_threshold(th.beta(0.0) - x0)
    sample_fpt_curvy(shifted, CurvyParams(epsilon=2.0**-4), np.random.default_rng(0))
    assert heights == [gap]
    # with zero normals an Euler path stays at x0, so every gap is the start
    # gap; a bridge test fires below exp(-2 * gap^2 / delta), so uniforms
    # equal to that value and one float below it fire at the second step
    # only, at time 1.5, when the walk's gap is exactly `gap`, and a wrong
    # side would cross at time 1
    scheme = GridScheme(delta=1.0, horizon=4.0, scheme="improved_euler")
    p = math.exp(-2.0 * gap * gap / 1.0)
    uniforms = [p, math.nextafter(p, 0.0)]
    plain, improved = coupled_euler_pair(sde, th, scheme, _ZeroNormals(uniforms))
    assert (plain.time, improved.time) == (math.inf, 1.5)
    assert improved_euler_fpt(sde, th, scheme, _ZeroNormals(uniforms)).time == 1.5
    assert euler_fpt(sde, th, scheme, _ZeroNormals([])).time == math.inf
    p = float(np.exp(np.array([-2.0 * gap * gap]))[0])
    uniforms = [p, math.nextafter(p, 0.0)]
    monkeypatch.setattr(baselines_module, "substream", lambda *key: _ZeroNormals(uniforms))
    times = coupled_grid_times(sde, th, scheme, 1, 0)
    assert (times[0].tolist(), times[1].tolist()) == ([math.inf], [1.5])
    # a start on beta(0) has no side: the exact samplers refuse it, and the
    # walks let it pass at time 0
    on = constant_threshold(x0)
    with pytest.raises(ConfigurationError, match="lies on the threshold"):
        ExactProblem(sde, on, make_gamma_pair(sde, on, g).with_kappa(1.0))
    with pytest.raises(ConfigurationError, match="lies on the threshold"):
        sample_fpt_curvy(constant_threshold(0.0), CurvyParams(epsilon=2.0**-4),
                         np.random.default_rng(0))
    assert [d.time for d in coupled_euler_pair(sde, on, scheme, _ZeroNormals([]))] == [0.0, 0.0]
    times = coupled_grid_times(sde, on, scheme, 2, 0)
    assert (times[0].tolist(), times[1].tolist()) == ([0.0, 0.0], [0.0, 0.0])


@pytest.mark.parametrize("s", [1.0, -1.0])
@pytest.mark.parametrize("g", [0.0, 0.7])
@pytest.mark.parametrize("shape", ["line", "curve"])
def test_proposal_frame_shifts_tilts_and_reflects(s, g, shape):
    x0 = 0.3
    # start 1.2 away from x0: the threshold starts above x0 for s = 1 and
    # below it for s = -1, and the frame reflects it then
    if shape == "line":
        th = linear_threshold(-0.5, x0 + 1.2 * s)
    else:
        th = Threshold(
            beta=lambda t: x0 + 1.2 * s * math.exp(-t),
            beta_prime=lambda t: -1.2 * s * math.exp(-t),
            inf_slope=min(-1.2 * s, 0.0),
            sup_slope=max(-1.2 * s, 0.0),
        )
    frame = th.proposal_frame(x0, g)
    assert frame.beta(0.0) == pytest.approx(1.2, rel=1e-14)
    frame.validate_start(0.0)
    for t in (0.0, 0.4, 1.7, 6.0):
        assert frame.beta(t) == s * (th.beta(t) - g * t - x0)
        assert frame.beta_prime(t) == s * (th.beta_prime(t) - g)
    # the bounds of beta' tilted by g, on swapped sides below the start
    lo, hi = sorted((s * (th.inf_slope - g), s * (th.sup_slope - g)))
    assert (frame.inf_slope, frame.sup_slope) == (lo, hi)
    frame.validate_slopes(np.linspace(0.0, 6.0, 61))
    if shape == "line":
        assert frame.linear == (s * (-0.5 - g), s * (th.linear[1] - x0))
        assert frame.linear[1] == pytest.approx(1.2, rel=1e-14)
    else:
        assert frame.linear is None


def test_proposal_frame_keeps_an_unknown_bound_unknown():
    th = exponential_threshold(-1.0, -0.5)  # beta' unbounded below
    frame = th.proposal_frame(g=0.2)
    assert frame.sup_slope is None
    assert frame.inf_slope == -(th.sup_slope - 0.2)


def test_validate_slopes_rejects_wrong_bounds():
    th = linear_threshold(1.0, 1.0)
    bad = type(th)(
        beta=th.beta,
        beta_prime=th.beta_prime,
        inf_slope=2.0,  # claims slope >= 2 but the true slope is 1
        sup_slope=2.0,
        linear=th.linear,
    )
    with pytest.raises(ConfigurationError):
        bad.validate_slopes([0.0, 1.0, 2.0])


@given(
    g=st.floats(-2.0, 2.0),
    t=st.floats(0.0, 5.0),
    x=st.floats(-3.0, 3.0),
)
@settings(max_examples=200, deadline=None)
def test_make_gamma_pair_matches_definitions(g, t, x):
    sde = sinusoidal_sde(1.6, 0.0)
    th = linear_threshold(-1.0, 0.5)
    pair = make_gamma_pair(sde, th, reference_drift=g)
    expected1 = -(sde.alpha(th.beta(t)) - g) * th.beta_prime(t)
    expected2 = (sde.alpha_prime(x) + sde.alpha(x) ** 2 - g * g) / 2.0
    assert pair.gamma1(t) == pytest.approx(expected1, abs=1e-12)
    assert pair.gamma2(x) == pytest.approx(expected2, abs=1e-12)
    assert pair.reference_drift == g


def test_gamma_pair_sum_guards():
    pair = GammaPair(gamma1=lambda t: 1.0, gamma2=lambda x: -0.5, kappa=1.0)
    assert pair.evaluate(0.0, 0.0) == pytest.approx(0.5)

    # a slightly negative sum (round-off scale) clamps to zero
    tiny = GammaPair(gamma1=lambda t: 0.0, gamma2=lambda x: -1e-13, kappa=1.0)
    assert tiny.evaluate(0.0, 0.0) == 0.0

    # per-piece negativity is fine as long as the sum stays in range
    mixed = GammaPair(gamma1=lambda t: -2.0, gamma2=lambda x: 2.5, kappa=1.0)
    assert mixed.evaluate(1.0, 1.0) == pytest.approx(0.5)

    with pytest.raises(AssumptionViolation):
        GammaPair(gamma1=lambda t: 0.0, gamma2=lambda x: -1e-6).evaluate(0.0, 0.0)
    with pytest.raises(AssumptionViolation):
        GammaPair(gamma1=lambda t: 2.0, gamma2=lambda x: 0.0, kappa=1.0).evaluate(0.0, 0.0)
    with pytest.raises(DomainError):
        GammaPair(gamma1=lambda t: math.inf, gamma2=lambda x: 0.0).evaluate(0.0, 0.0)


def test_with_kappa_validation():
    pair = GammaPair(gamma1=lambda t: 0.0, gamma2=lambda x: 0.0)
    assert pair.with_kappa(2.0).kappa == 2.0
    with pytest.raises(ParameterError):
        pair.with_kappa(0.0)
    with pytest.raises(ParameterError):
        pair.with_kappa(math.nan)


def test_estimate_kappa_dominates_grid_sup_with_margin():
    sde = sinusoidal_sde(1.6, 0.0)
    th = linear_threshold(-1.0, 0.5)
    pair = make_gamma_pair(sde, th)
    kappa = estimate_kappa(pair, t_max=10.0, x_lo=-4.0, x_hi=4.0)
    ts = np.linspace(0.0, 10.0, 4001)
    xs = np.linspace(-4.0, 4.0, 4001)
    sup = max(pair.gamma1(t) for t in ts) + max(pair.gamma2(x) for x in xs)
    assert kappa >= sup
    assert kappa <= sup * 1.10 + 1e-6


def test_estimate_kappa_floor_for_vanishing_rates():
    pair = GammaPair(gamma1=lambda t: 0.0, gamma2=lambda x: 0.0)
    assert estimate_kappa(pair, 1.0, -1.0, 1.0) >= 1e-6


# the inverse-map bracket search probes far outside the validated range,
# where the quadrature hits its subdivision cap; accuracy where it matters
# is asserted below at rtol 1e-5
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_lamperti_transform_geometric_brownian_motion():
    mu, sig = 0.3, 0.5
    gbm = GeneralSDE(
        mu=lambda y: mu * y,
        sigma=lambda y: sig * y,
        sigma_prime=lambda y: sig,
        y0=1.0,
    )
    unit = lamperti_transform(gbm, y_ref=1.0)
    # X = ln(y)/sig has constant drift mu/sig - sig/2
    expected = mu / sig - sig / 2.0
    for x in (-1.0, 0.0, 0.7, 2.0):
        assert unit.alpha(x) == pytest.approx(expected, abs=1e-7)
    assert unit.x0 == pytest.approx(0.0, abs=1e-9)
    validate_unit_sde(unit, [-1.0, -0.2, 0.4, 1.5], rtol=1e-5)


def test_lamperti_transform_rejects_nonpositive_sigma():
    bad = GeneralSDE(
        mu=lambda y: 0.0, sigma=lambda y: -1.0, sigma_prime=lambda y: 0.0, y0=0.0
    )
    with pytest.raises(DomainError):
        lamperti_transform(bad, 0.0)


def test_validate_unit_sde_detects_inconsistent_potential():
    sde = UnitDiffusionSDE(
        alpha=lambda x: x,
        alpha_prime=lambda x: 1.0,
        A=lambda x: x,  # should be x^2/2
        x0=0.0,
    )
    with pytest.raises(ConfigurationError):
        validate_unit_sde(sde, [0.5, 1.0])
