"""Rejection sampler: the event loop's clock and bridge, and end-to-end law oracles."""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import fptsim.exact as exact_module
from fptsim.baselines import GridScheme, grid_batch
from fptsim.bm_fpt import (
    CurvyParams,
    FptDraw,
    constant_level_cdf,
    inverse_gaussian_cdf,
    sample_fpt_curvy,
)
from fptsim.errors import (
    AssumptionViolation,
    ConfigurationError,
    DomainError,
    NonTerminationError,
    ParameterError,
)
from fptsim.exact import (
    ExactProblem,
    choose_split_count,
    draw_streams,
    expected_proposals,
    iteration_bound_linear,
    sample_batch,
    sample_exact,
    sample_exact_below,
    sample_exact_split,
)
from fptsim.model import (
    KAPPA_FLOOR,
    GammaPair,
    Threshold,
    UnitDiffusionSDE,
    constant_threshold,
    linear_threshold,
    make_gamma_pair,
)
from fptsim.neuron import NeuronParams, _draw_interval
from fptsim.problems import (
    build_custom_problem,
    example1_problem,
    example2_problem,
    exponential_threshold,
)
from fptsim.rng import block_stream, substream
from fptsim.stats import ks_one_sample, ks_two_sample
from test_acceptance import bridge_state_ks, clock_proposals_z, falling_line_problem
from test_neuron import _CountingGenerator


def _unit_sde(c: float, x0: float = 0.0) -> UnitDiffusionSDE:
    return UnitDiffusionSDE(
        alpha=lambda x: c,
        alpha_prime=lambda x: 0.0,
        A=lambda x: c * x,
        x0=x0,
    )


def _problem(c: float, a: float, b: float, kappa: float, max_proposals: int = 10**6) -> ExactProblem:
    sde = _unit_sde(c)
    th = linear_threshold(a, b)
    gammas = make_gamma_pair(sde, th).with_kappa(kappa)
    return ExactProblem(sde=sde, threshold=th, gammas=gammas, max_proposals=max_proposals)


# --- the event loop's clock and bridge ------------------------------------------


@pytest.mark.parametrize("clock", ["combined", "split"])
def test_the_loop_steps_the_bridge_forward_to_its_pin(monkeypatch, clock):
    # the loop guarantees the coefficients' preconditions, e0 <= e1 <= tau
    # and e0 < tau, and at the pin the bridge collapses to 0
    calls = []
    original = exact_module._bridge_coeffs
    monkeypatch.setattr(exact_module, "_bridge_coeffs",
                        lambda *args: calls.append(args) or original(*args))
    sample_batch(falling_line_problem(0.0, 1.0, clock == "split", []), 200, 31)
    assert calls
    assert all(0.0 <= e0 <= e1 <= tau and e0 < tau for tau, e0, e1 in calls)
    assert original(1.0, 0.3, 1.0) == (0.0, 0.0)


def _wald_passage_density(t: float) -> float:
    """Density of the passage of ``W_t + t`` to 1: the zero-drift passage
    from 0 to the line ``1 - t``."""
    return math.exp(-(1.0 - t) ** 2 / (2.0 * t)) / math.sqrt(2.0 * math.pi * t**3)


@pytest.mark.parametrize(
    "intensity,integral",
    [
        (lambda t: 0.37, lambda t: 0.37 * t),
        (lambda t: 0.2 + 0.3 * min(t, 2.0),
         lambda t: 0.2 * t + 0.15 * min(t, 2.0) ** 2 + 0.6 * max(t - 2.0, 0.0)),
    ],
    ids=["constant", "linear"],
)
def test_thinning_reproduces_void_probability(intensity, integral):
    # a proposal passing at tau is kept when the clock thins no event of the
    # time rate on [0, tau], with probability exp(-int_0^tau intensity); the
    # mean proposals are one over that void probability's mean over tau
    from scipy.integrate import quad

    def kept(t: float) -> float:
        return _wald_passage_density(t) * math.exp(-integral(t))

    p = quad(kept, 0.0, 2.0)[0] + quad(kept, 2.0, math.inf)[0]
    line = falling_line_problem(0.0, 1.5, False, [])
    prob = ExactProblem(line.sde, line.threshold, replace(line.gammas, gamma1=intensity))
    n = 20_000
    counts = np.array([d.proposals for d in sample_batch(prob, n, 35)], dtype=float)
    se = counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.mean() - 1.0 / p) < 3.0 * se


def test_the_combined_clock_reads_the_time_rate_where_it_reads_the_threshold():
    # the bridge clock runs backwards from the pin, so an event at e1 lies at
    # forward time tau - e1; a time rate read at e1 instead keeps every void
    # probability (the Poisson clock on [0, tau] is the same either way
    # round), so only the argument shows it
    reads = []
    line = falling_line_problem(0.0, 1.0, False, [])

    def beta(t: float) -> float:
        reads.append(("beta", t))
        return line.threshold.beta(t)

    def gamma1(t: float) -> float:
        reads.append(("gamma1", t))
        return 0.0

    prob = ExactProblem(line.sde, replace(line.threshold, beta=beta),
                        replace(line.gammas, gamma1=gamma1))
    reads.clear()
    draws = sample_batch(prob, 200, 36)
    rates = [i for i, (name, _) in enumerate(reads) if name == "gamma1"]
    assert len(rates) == sum(d.clock_events for d in draws) > 0
    assert all(i > 0 and reads[i - 1] == ("beta", reads[i][1]) for i in rates)


# Each fault is planted in the shipped loop through a module global it reads
# on every draw.  Criteria 7 and 8 run the same checks on the same problems
# at 5 * 10^4 draws; here each check passes at 10^4 draws without its fault
# and fails with it.


@pytest.mark.parametrize("clock", ["combined", "split"])
def test_criterion_7_fails_on_doubled_clock_gaps(monkeypatch, clock):
    # gaps of 2/kappa run the clock at half its rate, so proposals are kept
    # with probability E[exp(-0.75 tau_W)] and the mean falls to about 1.79
    assert abs(clock_proposals_z(clock == "split", 1.5, 10_000, 32)[1]) < 3.0

    def doubled(rng, size=16):
        normal, uniform, exponential = draw_streams(rng, size)
        return normal, uniform, lambda: 2.0 * exponential()

    monkeypatch.setattr(exact_module, "draw_streams", doubled)
    assert clock_proposals_z(clock == "split", 1.5, 10_000, 32)[1] < -3.0


@pytest.mark.parametrize("clock", ["combined", "split"])
def test_criterion_8_fails_on_a_bridge_never_pulled_to_its_pin(monkeypatch, clock):
    # with c1 = 1 the bridge never shrinks toward 0 at the pin, so the
    # rebuilt gap spreads too wide
    assert bridge_state_ks(clock == "split", 10_000, 33)[0] > 0.01
    original = exact_module._bridge_coeffs
    monkeypatch.setattr(exact_module, "_bridge_coeffs",
                        lambda tau, e0, e1: (1.0, original(tau, e0, e1)[1]))
    assert bridge_state_ks(clock == "split", 10_000, 33)[0] < 0.01


@pytest.mark.parametrize("clock", ["combined", "split"])
def test_criterion_8_fails_on_a_bridge_with_its_variance_for_its_spread(monkeypatch, clock):
    # c2 squared is c2 shrunk wherever c2 < 1, as on most steps here, so the
    # rebuilt gap spreads too narrow
    assert bridge_state_ks(clock == "split", 10_000, 33)[0] > 0.01
    original = exact_module._bridge_coeffs

    def unsquared(tau, e0, e1):
        c1, c2 = original(tau, e0, e1)
        return c1, c2 * c2

    monkeypatch.setattr(exact_module, "_bridge_coeffs", unsquared)
    assert bridge_state_ks(clock == "split", 10_000, 33)[0] < 0.01


@pytest.mark.parametrize("clock", ["combined", "split"])
def test_the_event_loop_refuses_a_nan_rate(clock):
    prob = falling_line_problem(math.nan, 1.0, clock == "split", [])
    with pytest.raises(DomainError, match=r"rate at \(t=.*, x=.*\) is nan"):
        sample_batch(prob, 200, 34)


_CLOCK_RATE_USERS = {
    "iteration_bound_linear": ("kappa", lambda kappa: iteration_bound_linear(-1.0, 1.0, kappa)),
    "choose_split_count": ("kappa_max", lambda kappa: choose_split_count(-1.0, 1.0, kappa)),
}


@pytest.mark.parametrize("kappa", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "0", "minus_1"])
@pytest.mark.parametrize("function", sorted(_CLOCK_RATE_USERS))
def test_clock_rate_users_refuse_a_kappa_that_is_not_finite_and_positive(function, kappa):
    # at kappa = inf the split count would overflow
    name, call = _CLOCK_RATE_USERS[function]
    with pytest.raises(ParameterError, match=_exactly(f"{name} must be finite and positive, got {kappa}")):
        call(kappa)


# --- end-to-end closed-form laws --------------------------------------------


def test_zero_drift_above_start_reduces_to_the_proposal_law():
    # gamma1 = gamma2 = 0, so every proposal is accepted and the accepted law
    # is the Brownian passage law to the falling line itself
    prob = _problem(0.0, -1.0, 0.5, kappa=1.0)
    draws = sample_batch(prob, 20000, 41)
    assert all(d.proposals == 1 for d in draws)
    x = np.array([d.time for d in draws])
    d, p = ks_one_sample(x, lambda t: inverse_gaussian_cdf(t, 0.5, 0.25))
    assert p > 0.01


def test_constant_drift_to_constant_level_is_inverse_gaussian():
    # dX = c dt + dB to level b: tau ~ IG(b/c, b^2); exercises proposals,
    # thinning and acceptance with a non-trivial gamma2 = c^2/2
    c, b = 1.0, 1.0
    prob = _problem(c, 0.0, b, kappa=c * c / 2.0)
    draws = sample_batch(prob, 20000, 42)
    x = np.array([d.time for d in draws])
    d, p = ks_one_sample(x, lambda t: inverse_gaussian_cdf(t, b / c, b * b))
    assert p > 0.01
    assert any(d.proposals > 1 for d in draws)


@pytest.mark.parametrize("c", [0.8, 1.2])
def test_flat_threshold_with_reference_drift_is_a_linear_proposal(c):
    # dX = c dt + dB to level 1 measured against BM with drift g = 0.8: the
    # proposal of a flat threshold is the falling line 1 - g t, and the
    # passage law is IG(1/c, 1) whatever g is
    g, level = 0.8, 1.0
    sde = _unit_sde(c)
    th = linear_threshold(0.0, level)
    gammas = make_gamma_pair(sde, th, reference_drift=g).with_kappa(0.5)  # gamma2 = (c^2 - g^2)/2
    prob = ExactProblem(sde=sde, threshold=th, gammas=gammas)
    assert prob.curvy is None and prob._kernel.line is not None
    draws = sample_batch(prob, 20000, 44)
    x = np.array([d.time for d in draws])
    _, p = ks_one_sample(x, lambda t: inverse_gaussian_cdf(t, level / c, level * level))
    assert p > 0.01
    assert all(d.finite for d in draws)


def test_below_start_zero_drift_matches_reflected_line_law():
    # BM to the rising line -1 + 0.5 t from below: by symmetry the law is the
    # passage of BM to the falling line 1 - 0.5 t, i.e. IG(2, 1)
    prob = _problem(0.0, 0.5, -1.0, kappa=1.0)
    draws = [sample_exact_below(prob, np.random.default_rng(100 + i)) for i in range(20000)]
    x = np.array([d.time for d in draws])
    d, p = ks_one_sample(x, lambda t: inverse_gaussian_cdf(t, 2.0, 1.0))
    assert p > 0.01


# zero drift from 0 to each line shape at kappa = KAPPA_FLOOR: the rates are
# 0, so every hitting proposal is kept, and the accepted law is the Brownian
# passage law to the line, given a hit: (slope, intercept, cdf, proposals)
_LINE_LAWS = {
    "falling": (-1.0, 0.5, lambda t: inverse_gaussian_cdf(t, 0.5, 0.25), 1.0),
    "rising": (0.5, 1.0, lambda t: inverse_gaussian_cdf(t, 2.0, 1.0), math.exp(1.0)),
    "flat": (0.0, 1.0, lambda t: constant_level_cdf(t, 1.0), 1.0),
}


@pytest.mark.parametrize("shape", sorted(_LINE_LAWS))
def test_line_proposals_follow_the_brownian_passage_law(shape):
    # the rising line's proposals hit with probability exp(-2ab) = 1/e, so a
    # draw takes e proposals on average
    a, b, cdf, mean_proposals = _LINE_LAWS[shape]
    draws = sample_batch(_problem(0.0, a, b, kappa=KAPPA_FLOOR), 10_000, 47)
    _, p = ks_one_sample(np.array([d.time for d in draws]), cdf)
    assert p > 0.01
    counts = np.array([d.proposals for d in draws], dtype=float)
    if mean_proposals == 1.0:
        assert counts.max() == 1.0
    else:
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - mean_proposals) < 3.0 * se


@pytest.mark.parametrize("build", [
    example1_problem,
    lambda: _problem(0.0, 0.5, 1.0, kappa=1.0),
    lambda: _problem(1.0, 0.0, 1.0, kappa=0.5),
    example2_problem,
], ids=["falling_line", "rising_line", "flat_level", "example2"])
def test_exact_draws_take_only_normals_and_uniforms(build):
    # proposals, clock gaps and marks all come from the two block streams:
    # no Wald and no exponential draw reaches the generator
    prob = build()
    rng = _CountingGenerator(48)
    draws = [sample_exact(prob, rng) for _ in range(200)]
    assert sum(d.clock_events for d in draws) > 0
    assert rng.names == {"standard_normal", "random"}


def test_one_threshold_is_passed_from_either_side_of_its_start():
    # a threshold is a curve only and the start picks the side: one level-1
    # object serves a start below it and one above it, and with zero drift
    # both passages follow Brownian motion's law to a level 1 away.  The
    # rates are zero, so the clock rate is the floor estimate_kappa gives
    # such rates: a clock at rate 1 would walk each Levy proposal, whose
    # mean is infinite, event by event.
    th = constant_threshold(1.0)
    for x0, sign, seed in ((0.0, 1.0, 45), (2.0, -1.0, 46)):
        sde = _unit_sde(0.0, x0=x0)
        prob = ExactProblem(sde=sde, threshold=th,
                            gammas=make_gamma_pair(sde, th).with_kappa(KAPPA_FLOOR))
        assert prob._kernel.sign == sign
        x = np.array([d.time for d in sample_batch(prob, 4000, seed)])
        _, p = ks_one_sample(x, lambda t: constant_level_cdf(t, 1.0))
        assert p > 0.01


def test_example1_acceptance_identity():
    prob = example1_problem()
    target = expected_proposals(prob)
    assert target == pytest.approx(math.exp((1.6 * 0.5 - math.cos(0.5)) - (0.0 - 1.0)), rel=1e-12)
    draws = sample_batch(prob, 4000, 43)
    counts = np.array([d.proposals for d in draws], dtype=float)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - target) < 3.0 * se


def test_proposal_budget_is_generous_enough_in_practice():
    bound = iteration_bound_linear(-1.0, 0.5, 6.48)
    prob = example1_problem(max_proposals=math.ceil(100 * bound))
    draws = sample_batch(prob, 10000, 44)
    assert len(draws) == 10000  # no NonTerminationError raised


def test_max_proposals_exhaustion_raises():
    prob = example1_problem(max_proposals=1)
    with pytest.raises(NonTerminationError):
        sample_batch(prob, 50, 45)


@pytest.mark.parametrize("clock", ["space", "combined"])
def test_kappa_too_small_is_caught_not_silently_biased(clock):
    # lower the bound the clock runs at: space_kappa on Example 1's split
    # clock, kappa once the pair carries no space bound
    prob = example1_problem()
    gammas = (replace(prob.gammas, space_kappa=0.5) if clock == "space"
              else replace(prob.gammas, space_kappa=None).with_kappa(0.5))
    lowered = ExactProblem(
        sde=prob.sde,
        threshold=prob.threshold,
        gammas=gammas,
        curvy=prob.curvy,
        max_proposals=prob.max_proposals,
    )
    with pytest.raises(AssumptionViolation):
        sample_batch(lowered, 200, 46)


# --- batching ---------------------------------------------------------------


def test_sample_batch_entry_i_is_the_draw_on_substream_i():
    prob = example1_problem()
    batch = sample_batch(prob, 60, 47)
    assert batch == [sample_exact(prob, substream(47, i)) for i in range(60)]
    split = sample_batch(prob, 20, 47, split=3)
    assert split == [sample_exact_split(prob, 3, substream(47, i)) for i in range(20)]


def _plain_float_problems():
    return {
        "constant": _problem(0.0, 0.0, 1.0, 1.0),
        "falling_line": example1_problem(),
        # hits with probability exp(-1): most draws redraw a non-hitting line
        "rising_line": _problem(0.0, 1.0, 0.5, 1.0),
        "below_start": _problem(-1.0, 0.5, -0.5, 1.5),
        "curved": example2_problem(epsilon=2.0**-8),
    }


@pytest.mark.parametrize(
    "name", ["constant", "falling_line", "rising_line", "below_start", "curved"]
)
def test_draws_are_plain_floats(name):
    prob = _plain_float_problems()[name]
    draws = sample_batch(prob, 30, 51)
    assert all(type(d.time) is float for d in draws)
    assert all(d.finite and d.time > 0.0 for d in draws)
    if name == "rising_line":
        # every hitting proposal is accepted (zero rates), so any extra
        # proposal was a non-hitting one
        assert any(d.proposals > 1 for d in draws)


@pytest.mark.parametrize("name", ["falling_line", "curved"])
def test_draws_do_not_depend_on_earlier_calls(name):
    prob = _plain_float_problems()[name]
    alone = [sample_exact(prob, substream(52, i)) for i in (4, 1)]
    in_order = [sample_exact(prob, substream(52, i)) for i in range(6)]
    assert alone == [in_order[4], in_order[1]]
    assert sample_batch(prob, 6, 52) == in_order
    # consecutive calls on one generator, as the neuron stages make
    rng = substream(52, 0)
    first, second = sample_exact(prob, rng), sample_exact(prob, rng)
    assert first == in_order[0]
    assert second.time != first.time


@pytest.mark.parametrize("name", ["curved", "falling_line"])
def test_line_draws_count_the_curved_proposals_line_draws(monkeypatch, name):
    # count the way the benchmark tracer does: wrap the module's name
    calls = []
    original = exact_module.sample_fpt_curvy

    def counting(*args, **kwargs):
        d = original(*args, **kwargs)
        calls.append(d.clock_events)
        return d

    monkeypatch.setattr(exact_module, "sample_fpt_curvy", counting)
    # every thinning event evaluates gamma2 once, on either clock, and
    # nothing else does
    events = []
    prob = _plain_float_problems()[name]
    gamma2 = prob.gammas.gamma2
    prob = replace(
        prob, gammas=replace(prob.gammas, gamma2=lambda x: events.append(x) or gamma2(x))
    )
    for i in range(20):
        calls.clear()
        events.clear()
        d = sample_exact(prob, substream(53, i))
        assert d.line_draws == sum(calls)
        assert d.clock_events == len(events)
        if name == "curved":
            assert len(calls) == d.proposals
            assert d.line_draws >= d.proposals
        else:
            assert calls == [] and d.line_draws == 0


def test_curved_draws_read_the_threshold_at_0_only_at_build():
    # the kernel holds the start gap phi(0), so curved proposals take it
    # from there and sampling never evaluates the threshold at 0
    prob = example2_problem(epsilon=2.0**-20)
    at_zero = []
    beta = prob.threshold.beta

    def recording(t):
        if t == 0.0:
            at_zero.append(t)
        return beta(t)

    prob = replace(prob, threshold=replace(prob.threshold, beta=recording))
    built = len(at_zero)
    assert built >= 1
    draws = sample_batch(prob, 20, 59)
    assert sum(d.proposals for d in draws) > 20
    assert len(at_zero) == built


def test_clock_gaps_invert_the_uniform_stream():
    # the exponential stream is -log(1 - u) of the next uniform, so event
    # marks and clock gaps share the uniforms' blocks, and u = 0 gives a gap
    # of 0, not inf
    us = np.random.default_rng(60).random(32).tolist()
    _, uniform, exponential = draw_streams(np.random.default_rng(60))
    got = [uniform() if i % 3 else exponential() for i in range(32)]
    assert got == [u if i % 3 else -math.log(1.0 - u) for i, u in enumerate(us)]
    _, _, exponential = draw_streams(SimpleNamespace(standard_normal=np.zeros, random=np.zeros))
    assert exponential() == 0.0


# --- space splitting ---------------------------------------------------------


def test_split_preserves_the_law():
    prob = example1_problem()
    base = np.array([d.time for d in sample_batch(prob, 8000, 48)])
    for k in (2, 4):
        split = np.array([d.time for d in sample_batch(prob, 8000, 48, split=k)])
        d, p = ks_two_sample(base, split)
        assert p > 0.01


@pytest.mark.parametrize("k", [2, 4])
def test_split_below_the_start_follows_the_closed_form(k):
    # drift -1 against the line 0.5t - 0.5 below x0 = 0: the gap starts at
    # 0.5 and closes at rate 1.5, so tau is IG(1/3, 1/4); every stage line
    # lies below its start, as the problem's line does
    prob = _problem(-1.0, 0.5, -0.5, kappa=1.5)
    assert prob._kernel.sign == -1.0
    x = np.array([d.time for d in sample_batch(prob, 8000, 49, split=k)])
    _, p = ks_one_sample(x, lambda t: inverse_gaussian_cdf(t, 1.0 / 3.0, 0.25))
    assert p > 0.01


def test_split_refuses_k_below_1_and_a_stage_on_the_other_side(monkeypatch):
    with pytest.raises(ParameterError):
        sample_exact_split(example1_problem(), 0, np.random.default_rng(50))
    # stage lines 1e-16 apart, below the rounding of their intercepts: after
    # stage times 0.7 and 0.4 the third line, -t + 3e-16, rounds below the
    # second stage's hit point, on the other side from the problem's start
    times = iter([0.7, 0.4])
    monkeypatch.setattr(exact_module, "_sample_oriented",
                        lambda kernel, rng, streams: FptDraw(next(times), True))
    with pytest.raises(ConfigurationError, match=_exactly(
            "split stage 3 starts past its line: x = -1.0999999999999996")):
        sample_exact_split(_problem(0.0, -1.0, 3e-16, kappa=1.0), 3, np.random.default_rng(49))


def test_split_reduces_proposals_for_far_thresholds():
    far = example1_problem(b=3.0)
    k = choose_split_count(-1.0, 3.0, far.gammas.kappa)
    assert k > 1
    plain_mean = expected_proposals(far)
    draws = sample_batch(far, 400, 51, split=k)
    mean_total = np.mean([d.proposals for d in draws])
    assert mean_total < plain_mean
    assert mean_total <= k * math.e


# --- closed forms -------------------------------------------------------------


def test_iteration_bound_linear_formula():
    a, b, kappa = -1.0, 0.5, 6.48
    expected = math.exp(a * b - a * b * math.sqrt(1.0 + 2.0 * kappa / (a * a)))
    got = iteration_bound_linear(a, b, kappa)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(3.928, abs=5e-3)


def test_expected_proposals_refuses_an_exponent_that_overflows():
    # exp(A(0.5) - A(0)) with A(x) = K*x - cos(x) is exp(5e99 + 1 - cos(0.5))
    with pytest.raises(DomainError, match=r"^expected proposals exp\(5e\+99\) overflow a float$"):
        expected_proposals(example1_problem(K=1e100))


def test_expected_proposals_accounts_for_reference_drift():
    c, b, g = 1.0, 1.0, 0.5
    sde = _unit_sde(c)
    th = linear_threshold(0.0, b)
    gammas = make_gamma_pair(sde, th, reference_drift=g).with_kappa(1.0)
    prob = ExactProblem(sde=sde, threshold=th, gammas=gammas)
    manual = math.exp((c * b - g * b) - 0.0)
    assert expected_proposals(prob) == pytest.approx(manual, rel=1e-12)


def test_linear_intercept_on_the_wrong_side_is_refused_at_construction():
    # beta(0) = 1 lies above x0 = 0, but the line the proposals would use,
    # -t - 0.5, starts below it
    sde = _unit_sde(0.0)
    th = Threshold(
        beta=lambda t: 1.0 - t,
        beta_prime=lambda t: -1.0,
        inf_slope=-1.0,
        sup_slope=-1.0,
        linear=(-1.0, -0.5),
    )
    gammas = make_gamma_pair(sde, th).with_kappa(1.0)
    with pytest.raises(ConfigurationError, match="intercept"):
        ExactProblem(sde=sde, threshold=th, gammas=gammas)


@pytest.mark.parametrize("name", ["falling_line", "below_start", "curved"])
def test_each_problem_builds_one_proposal_frame(monkeypatch, name):
    built = []
    original = exact_module._frame

    def counting(th, *args):
        built.append(th)
        return original(th, *args)

    monkeypatch.setattr(exact_module, "_frame", counting)
    prob = _plain_float_problems()[name]
    assert sum(th is prob.threshold for th in built) == 1
    built.clear()
    sample_batch(prob, 20, 54)
    assert built == []


@pytest.mark.parametrize("curved", [False, True], ids=["line", "curve"])
def test_a_problem_build_reads_beta_at_0_once(curved):
    # the start's side and gap, and the proposal frame on that side, come
    # from one read of beta(0)
    reads = []
    shape = exponential_threshold(1.0, 1.0) if curved else linear_threshold(-1.0, 1.0)

    def beta(t):
        reads.append(t)
        return shape.beta(t)

    gammas = GammaPair(lambda t: 0.0, lambda x: 0.0, kappa=1.0)
    ExactProblem(_unit_sde(0.0), replace(shape, beta=beta), gammas,
                 CurvyParams(epsilon=2.0**-4) if curved else None)
    assert reads == [0.0]


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["above", "below"])
def test_a_curve_whose_frame_has_no_inf_slope_is_refused_at_build(sign):
    # exp(-t) declared without a lower slope bound above the start, and its
    # reflection without an upper one below it: neither frame has the slope
    # of a curvy line
    bounds = {"inf_slope": None, "sup_slope": 0.0} if sign > 0 else {"inf_slope": 0.0,
                                                                     "sup_slope": None}
    th = Threshold(beta=lambda t: sign * math.exp(-t), beta_prime=lambda t: -sign * math.exp(-t),
                   **bounds)
    sde = _unit_sde(0.0)
    with pytest.raises(ConfigurationError, match=_exactly(
            "curvy proposals need a bounded threshold slope")) as caught:
        ExactProblem(sde, th, make_gamma_pair(sde, th).with_kappa(1.0), CurvyParams(epsilon=2.0**-4))
    assert caught.value.exit_code == 2


def test_each_split_stage_builds_one_proposal_frame(monkeypatch):
    # every stage is checked and framed by the one kernel builder: one frame
    # of the stage's own line before its draw, none while it samples
    events, shared = [], []
    original_frame = exact_module._frame
    original_sample = exact_module._sample_oriented

    def counting(th, *args):
        events.append(("frame", th))
        return original_frame(th, *args)

    def recording(kernel, rng, streams=None):
        events.append(("draw", kernel))
        shared.append(streams)
        d = original_sample(kernel, rng, streams)
        events.append(("drawn", d))
        return d

    monkeypatch.setattr(exact_module, "_frame", counting)
    monkeypatch.setattr(exact_module, "_sample_oriented", recording)
    prob = example1_problem()
    a, b = prob.threshold.linear
    x0 = prob.sde.x0
    k = 3
    for i in range(4):
        events.clear()
        shared.clear()
        sample_exact_split(prob, k, substream(56, i))
        assert [kind for kind, _ in events] == ["frame", "draw", "drawn"] * k
        # the stages draw from one set of streams, opened once per draw
        assert shared[0] is not None and all(s is shared[0] for s in shared)
        t_acc = 0.0
        for j in range(k):
            (_, line), (_, kernel), (_, d) = events[3 * j:3 * j + 3]
            assert line.linear == (a, a * t_acc + (x0 + (b - x0) * ((j + 1) / k)))
            assert kernel.beta is line.beta
            t_acc += d.time


# --- refusals -----------------------------------------------------------------


def _exactly(message: str) -> str:
    return "^" + re.escape(message) + "$"


def _unbounded_problem():
    sde = _unit_sde(0.0)
    th = linear_threshold(-1.0, 1.0)
    return ExactProblem(sde=sde, threshold=th, gammas=make_gamma_pair(sde, th))


def _curve_without_curvy_params():
    sde = _unit_sde(0.0)
    th = exponential_threshold(1.0, 1.0)
    return ExactProblem(sde=sde, threshold=th, gammas=make_gamma_pair(sde, th).with_kappa(1.0))


def _line_with_curvy_params():
    prob = example1_problem()
    return ExactProblem(sde=prob.sde, threshold=prob.threshold, gammas=prob.gammas,
                        curvy=CurvyParams(epsilon=2.0**-10))


def _drifted_problem(g: float) -> ExactProblem:
    sde = _unit_sde(0.0)
    th = linear_threshold(-1.0, 1.0)
    return ExactProblem(sde=sde, threshold=th,
                        gammas=make_gamma_pair(sde, th, reference_drift=g).with_kappa(1.0))


def _with_kappa(kappa: float) -> ExactProblem:
    prob = example1_problem()
    return ExactProblem(sde=prob.sde, threshold=prob.threshold,
                        gammas=replace(prob.gammas, kappa=kappa), curvy=prob.curvy)


def _with_space_kappa(space_kappa: float) -> ExactProblem:
    prob = example1_problem()
    return replace(prob, gammas=replace(prob.gammas, space_kappa=space_kappa))


_REFUSALS = {
    "kappa_unset": (_unbounded_problem, ConfigurationError,
                    "gammas.kappa must be set for sampling"),
    "no_budget": (lambda: example1_problem(max_proposals=0), ParameterError,
                  "max_proposals must be >= 1, got 0"),
    # the threshold's shape picks the proposal, so CurvyParams come with a
    # curve and never with a line
    "curve_without_curvy_params": (_curve_without_curvy_params, ConfigurationError,
                                   "a curved threshold needs CurvyParams for its proposals"),
    "curvy_params_on_a_line": (_line_with_curvy_params, ConfigurationError,
                               "CurvyParams apply to curved thresholds only; this one is a line"),
    "split_on_a_curve": (
        lambda: sample_exact_split(example2_problem(), 2, substream(57, 0)),
        ConfigurationError, "space splitting requires a linear threshold",
    ),
    # the first of four stages starts at level 1 + 2**-54, which rounds to x0:
    # a stage passes the start check of every problem
    "split_stage_intercept_rounds_to_0": (
        lambda: sample_exact_split(example1_problem(x0=1.0, b=1.0 + 2.0**-52), 4,
                                   substream(57, 0)),
        ConfigurationError,
        "the start x0=1.0 lies on the threshold: beta(0)=1.0",
    ),
    # a start gap that is not finite would burn the budget, fail in numpy's
    # Wald draw or return time 0 for every draw
    "nan_reference_drift": (
        lambda: _drifted_problem(math.nan), ParameterError,
        "reference drift must be finite, got nan",
    ),
    "inf_reference_drift": (
        lambda: _drifted_problem(math.inf), ParameterError,
        "reference drift must be finite, got inf",
    ),
    # a kappa of nan would accept every proposal, inf would never return,
    # and 0 or -1 would fail in the clock's arithmetic
    **{f"kappa_{name}": (lambda kappa=kappa: _with_kappa(kappa), ParameterError,
                         f"kappa must be finite and positive, got {kappa}")
       for name, kappa in (("nan", math.nan), ("inf", math.inf), ("0", 0.0), ("minus_1", -1.0))},
    # the space bound is a clock rate too
    **{f"space_kappa_{name}": (lambda kappa=kappa: _with_space_kappa(kappa), ParameterError,
                               f"space_kappa must be finite and positive, got {kappa}")
       for name, kappa in (("nan", math.nan), ("inf", math.inf), ("0", 0.0), ("minus_1", -1.0))},
    "start_at_minus_inf": (
        lambda: example1_problem(x0=-math.inf), ParameterError,
        "start gap inf is not finite: x0 = -inf, beta(0) = 0.5",
    ),
}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_each_refusal_raises_its_type_and_message(name):
    build, error, message = _REFUSALS[name]
    with pytest.raises(error, match=_exactly(message)):
        build()


def _exponential_below_start() -> ExactProblem:
    return build_custom_problem("sinusoidal", {}, "exponential", {"a": 0.5, "b": 1.0}, x0=1.0)


@pytest.mark.parametrize("build", [lambda: _plain_float_problems()["below_start"],
                                   _exponential_below_start], ids=["line", "exponential"])
def test_one_draw_function_serves_both_sides_of_the_threshold(build):
    # the problem decides how its draw runs: sample_exact takes a below-start
    # problem, and the neuron's name for it is the same function object
    prob = build()
    assert prob._kernel.sign == -1.0
    assert sample_exact_below is sample_exact
    batch = sample_batch(prob, 8, 1213)
    for i in (0, 3, 7):
        assert sample_exact(prob, substream(1213, i)) == batch[i]
        assert sample_exact_below(prob, substream(1213, i)) == batch[i]


@pytest.mark.parametrize("curved", [False, True])
def test_constructor_refuses_a_start_on_the_threshold(curved):
    # both thresholds start at beta(0) = 1: a start there has no side
    sde = _unit_sde(0.0, x0=1.0)
    if curved:
        th = exponential_threshold(1.0, 1.0)
        curvy = CurvyParams(epsilon=2.0**-4)
    else:
        th = linear_threshold(-1.0, 1.0)
        curvy = None
    gammas = make_gamma_pair(sde, th).with_kappa(1.0)
    # neuron stages are built by the constructor too, so this is every path
    with pytest.raises(ConfigurationError, match=_exactly(
            "the start x0=1.0 lies on the threshold: beta(0)=1.0")):
        ExactProblem(sde, th, gammas, curvy, 10)


@pytest.mark.parametrize(
    "build",
    [
        lambda: example2_problem(a=0.05),
        # a gap equal to epsilon stops at once too
        lambda: example2_problem(a=2.0**-4),
        lambda: build_custom_problem("zero", {}, "exponential", {"a": 0.03, "b": 1.0}),
        lambda: build_custom_problem("zero", {}, "exponential", {"a": -0.03, "b": 1.0}),
        lambda: build_custom_problem("zero", {}, "exponential", {"a": 0.2, "b": 1.0},
                                     epsilon=0.25),
    ],
    ids=["example2", "example2_at_epsilon", "sample_above", "sample_below", "sample_epsilon"],
)
def test_a_batch_on_a_curved_start_within_epsilon_is_refused(build):
    # the problem itself is kept: grid schemes run on its sde and threshold
    prob = build()
    with pytest.raises(ConfigurationError, match="every draw would be 0; lower epsilon"):
        sample_batch(prob, 5, 58)


def test_a_stage_within_epsilon_passes_at_once():
    # inside a chain of stages a start within epsilon is the iteration's
    # epsilon-stop, so the one-draw sampler keeps it
    prob = example2_problem(a=2.0**-3)
    assert all(d.time > 0.0 for d in sample_batch(prob, 10, 58))
    stage = ExactProblem(replace(prob.sde, x0=0.1), prob.threshold, prob.gammas, prob.curvy,
                         prob.max_proposals)
    assert stage._kernel.delta <= prob.curvy.epsilon
    draws = [sample_exact(stage, substream(58, i)) for i in range(10)]
    assert draws == [FptDraw(0.0, True, 1, 0, 0)] * 10


# --- the split clock: the time rate in closed form, the space rate thinned ----


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_the_split_clock_keeps_the_law_with_fewer_clock_events(name):
    prob = example1_problem() if name == "example1" else example2_problem(epsilon=2.0**-20)
    assert prob._kernel.time is not None
    n = 20_000
    split = sample_batch(prob, n, 61)
    # without the space bound the clock thins gamma1 + gamma2 at rate kappa
    combined = sample_batch(replace(prob, gammas=replace(prob.gammas, space_kappa=None)), n, 62)
    _, p = ks_two_sample(np.array([d.time for d in split]), np.array([d.time for d in combined]))
    assert p > 0.01
    assert 2 * sum(d.clock_events for d in split) <= sum(d.clock_events for d in combined)
    # a constant error c in the time factor keeps the law and scales the
    # proposals by exp(c); criterion 3 holds the 3-SE identity test
    mean = sum(d.proposals for d in split) / n
    assert abs(mean / expected_proposals(prob) - 1.0) < 0.05


def _tanh_sde(x0: float) -> UnitDiffusionSDE:
    # alpha = tanh: gamma2 = (sech^2 + tanh^2) / 2 = 1/2 everywhere, while
    # gamma1 = -tanh(beta) * beta' changes sign with beta
    return UnitDiffusionSDE(alpha=math.tanh, alpha_prime=lambda x: 1.0 - math.tanh(x) ** 2,
                            A=lambda x: math.log(math.cosh(x)), x0=x0)


def test_a_negative_time_rate_integral_is_refused_on_the_split_clock():
    # under the drift K + sin(x) a rising line has gamma1 < 0 from t = 0,
    # which the build refuses: space_kappa certifies gamma1 >= 0
    sde = example1_problem().sde
    th = linear_threshold(0.5, 0.5)
    gammas = replace(make_gamma_pair(sde, th).with_kappa(10.0), space_kappa=4.0)
    message = "space_kappa needs gamma1(0) = -1.0397127693021015 >= 0, got -1.0397127693021015"
    with pytest.raises(ConfigurationError, match=_exactly(message)) as caught:
        ExactProblem(sde=sde, threshold=th, gammas=gammas)
    assert caught.value.exit_code == 2
    # under tanh the line 1 - t has gamma1 = tanh(1 - t) >= 0 until t = 1:
    # A(beta(0)) - A(beta(tau)) < 0 at every hit after t = 2
    sde = _tanh_sde(-3.0)
    th = linear_threshold(-1.0, 1.0)
    prob = ExactProblem(sde, th, replace(make_gamma_pair(sde, th).with_kappa(2.0), space_kappa=1.0))
    with pytest.raises(AssumptionViolation, match="< 0 at") as caught:
        sample_batch(prob, 50, 63)
    assert caught.value.exit_code == 3


@pytest.mark.parametrize("K,a,split", [(1.2, -2.0, False), (1.6, -1.0, True)])
def test_example1_takes_the_split_clock_when_its_space_rate_is_non_negative(K, a, split):
    # at K = 1.2 the space rate dips below 0 (a = -1 is refused there, as
    # the time rate cannot make up for it), so only the sum has a bound
    prob = example1_problem(K=K, a=a)
    assert (prob.gammas.space_kappa is not None) == split
    assert (prob._kernel.time is not None) == split
    assert (prob._kernel.gamma1 is None) == split
    assert all(d.finite for d in sample_batch(prob, 50, 64))


# --- the time stop: curved proposals end at the first iterate Gamma1 rejects --


def _replay(values: list, rest):
    """A stream that serves ``values`` and then draws from ``rest``."""
    values = list(values)
    return lambda: values.pop(0) if values else rest()


def test_the_time_stop_matches_the_full_iteration_on_common_random_numbers(monkeypatch):
    # every curved proposal of Example 2 runs as the sampler runs it, with
    # its time stop, and again on the same line draws with no stop and with
    # a stop that records and never fires
    kernel = example2_problem(epsilon=2.0**-20)._kernel
    A, g, _, a0, _ = kernel.time
    horizon = kernel.curvy[1].horizon
    original = exact_module.sample_fpt_curvy
    last_uniform = []
    tally = {"proposals": 0, "fired": 0}

    def run(phi, params, normal, uniform, gap, stop):
        drawn = {"normal": [], "uniform": []}
        iterates = []

        def logged(stream, key):
            return lambda: drawn[key].append(stream()) or drawn[key][-1]

        def recording(t, phi_t):
            iterates.append((t, phi_t, len(drawn["normal"]), len(drawn["uniform"])))
            return stop is not None and stop(t, phi_t)

        d = original(phi, params, None, normal=logged(normal, "normal"),
                     uniform=logged(uniform, "uniform"), gap=gap, stop=recording)
        return d, iterates, drawn

    def checked(phi, params, rng, *, normal, uniform, gap, stop):
        u = last_uniform[-1]  # the time factor's uniform, drawn just before
        cut, cut_iterates, drawn = run(phi, params, normal, uniform, gap, stop)
        fresh = [np.random.default_rng([69, tally["proposals"]]) for _ in range(2)]
        plain = original(phi, params, None, gap=gap,
                         normal=_replay(drawn["normal"], fresh[0].standard_normal),
                         uniform=_replay(drawn["uniform"], fresh[0].random))
        full, iterates, _ = run(phi, params, _replay(drawn["normal"], fresh[1].standard_normal),
                                _replay(drawn["uniform"], fresh[1].random), gap, None)
        tally["proposals"] += 1
        # a stop that never fires changes nothing
        assert full == plain
        # up to the stop the same line draws give the same iterates, and
        # nothing is drawn after it
        assert cut_iterates == iterates[:len(cut_iterates)]
        if cut.time == math.inf:
            tally["fired"] += 1
            assert cut.clock_events == len(cut_iterates) and cut.proposals == 1
            assert cut_iterates[-1][2:] == (len(drawn["normal"]), len(drawn["uniform"]))
            # the full proposal is rejected too: censored, or by the time factor
            if full.time < horizon:
                b = kernel.beta(full.time)
                assert u >= math.exp(-(a0 - (A(b) - g * b)))
        else:
            assert cut == full
        return cut

    monkeypatch.setattr(exact_module, "sample_fpt_curvy", checked)
    for i in itertools.count():
        rng = substream(65, i)
        normal, uniform, exponential = exact_module.draw_streams(rng)
        streams = (normal, lambda: last_uniform.append(uniform()) or last_uniform[-1], exponential)
        exact_module._sample_oriented(kernel, rng, streams)
        if tally["proposals"] >= 10_000:
            break
    # the time factor rejects most of Example 2's proposals
    assert tally["fired"] > tally["proposals"] // 3


def test_a_time_factor_uniform_of_0_keeps_the_proposal():
    # u = 0 gives ln u = -inf: no iterate stops the proposal, and with every
    # uniform 0 and no clock event before the hit the first one is accepted
    kernel = example2_problem(epsilon=2.0**-20)._kernel
    rng = np.random.default_rng(67)
    streams = (block_stream(rng.standard_normal, 16), lambda: 0.0, lambda: 1e300)
    d = exact_module._sample_oriented(kernel, rng, streams)
    assert d.proposals == 1 and 0.0 < d.time < math.inf and d.line_draws > 1


def test_a_time_rate_that_dips_below_0_trips_the_stop():
    # under tanh the curve 1.5 exp(-t) - 0.5 has gamma1 = tanh(beta) * 1.5 exp(-t),
    # which is negative once beta < 0 (t > ln 3), so A_g(beta) = log cosh(beta)
    # rises between iterates there.  The build checks gamma1 at t = 0 only,
    # and as |beta| <= beta(0) = 1 the time factor is at most 1 at every
    # hit: only the stop can see the fault
    sde = _tanh_sde(-3.0)
    th = Threshold(beta=lambda t: 1.5 * math.exp(-t) - 0.5,
                   beta_prime=lambda t: -1.5 * math.exp(-t), inf_slope=-1.5, sup_slope=0.0)
    gammas = replace(make_gamma_pair(sde, th).with_kappa(2.5), space_kappa=1.0)
    prob = ExactProblem(sde, th, gammas, CurvyParams(epsilon=2.0**-20))
    with pytest.raises(AssumptionViolation, match=r"^rate -\S+ < 0 at \(t=") as caught:
        sample_batch(prob, 50, 68)
    assert caught.value.exit_code == 3


def test_a_split_clock_gamma1_that_is_not_the_closed_form_is_refused():
    # the rates of plain Brownian motion under Example 2's reference drift
    # g*: the split clock would take the time factor from A and g* and
    # never call this gamma1
    prob = example2_problem(epsilon=2.0**-20)
    pair = replace(make_gamma_pair(prob.sde, prob.threshold),
                   reference_drift=prob.gammas.reference_drift,
                   space_kappa=prob.gammas.space_kappa).with_kappa(prob.gammas.kappa)
    # gamma1(0) = (K + sin 1) * 1, the closed form (K + sin 1 - g*) * 1
    message = "space_kappa needs gamma1(0) = 2.2545286610783637 >= 0, got 2.4414709848078964"
    with pytest.raises(ConfigurationError, match=_exactly(message)) as caught:
        ExactProblem(prob.sde, prob.threshold, pair, prob.curvy)
    assert caught.value.exit_code == 2
    # without space_kappa the combined clock thins this gamma1 itself
    ExactProblem(prob.sde, prob.threshold, replace(pair, space_kappa=None), prob.curvy)


def test_the_time_stop_keeps_example2s_proposal_count():
    # a stop that reads Gamma1 later than its iterate, or compares the wrong
    # way, rejects proposals that the time factor keeps at their hit.  The
    # combined clock thins gamma1 itself and never stops a proposal; both
    # clocks draw the same law and so the same mean proposal count, bias of
    # the Bessel(3) reconstruction included, which expected_proposals lacks
    prob = example2_problem(epsilon=2.0**-20)
    combined = replace(prob, gammas=replace(prob.gammas, space_kappa=None))
    n = 20_000
    split, full = (np.array([d.proposals for d in sample_batch(p, n, seed)], dtype=float)
                   for p, seed in ((prob, 66), (combined, 67)))
    z = (split.mean() - full.mean()) / math.sqrt((split.var(ddof=1) + full.var(ddof=1)) / n)
    assert abs(z) < 3.0


def test_records_of_every_sampler_carry_no_instance_dict():
    # FptDraw is a tuple record: exact, split, curvy-iteration, grid and
    # neuron stage draws all come back as FptDraw without a __dict__
    ex1, ex2 = example1_problem(), example2_problem()
    kernel = ex2._kernel
    phi, params = kernel.curvy
    rng = np.random.default_rng(70)
    normal, uniform, _ = draw_streams(rng)
    draws = [sample_exact(ex1, rng), sample_exact(ex2, rng),
             sample_fpt_curvy(phi, params, rng, normal=normal, uniform=uniform, gap=kernel.delta)]
    draws += sample_batch(ex1, 5, 71, split=3)
    for scheme in ("euler", "improved_euler"):
        draws += grid_batch(ex1.sde, ex1.threshold, GridScheme(0.125, 8.0, scheme), 5, 72)
    stages = _draw_interval(NeuronParams(I=20.0), 5.0, 1.0, 100.0, rng, 10**6)[1]
    assert len(stages) == 2
    for d in draws + stages:
        assert type(d) is FptDraw and not hasattr(d, "__dict__")
