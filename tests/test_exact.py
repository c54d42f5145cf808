"""Rejection sampler: bridge recursion, thinning, and end-to-end law oracles."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import fptsim.exact as exact_module
from fptsim.bm_fpt import CurvyParams, FptDraw, inverse_gaussian_cdf
from fptsim.errors import (
    AssumptionViolation,
    ConfigurationError,
    DomainError,
    NonTerminationError,
    ParameterError,
)
from fptsim.exact import (
    BridgeState,
    ExactProblem,
    Proposal,
    bridge_step,
    choose_split_count,
    default_proposal,
    expected_proposals,
    iteration_bound_linear,
    run_thinning_trial,
    sample_batch,
    sample_exact,
    sample_exact_below,
    sample_exact_split,
)
from fptsim.model import (
    Orientation,
    Threshold,
    UnitDiffusionSDE,
    linear_threshold,
    make_gamma_pair,
)
from fptsim.problems import (
    build_custom_problem,
    example1_problem,
    example2_problem,
    exponential_threshold,
)
from fptsim.rng import substream
from fptsim.stats import ks_one_sample, ks_two_sample


def _unit_sde(c: float, x0: float = 0.0) -> UnitDiffusionSDE:
    return UnitDiffusionSDE(
        alpha=lambda x: c,
        alpha_prime=lambda x: 0.0,
        A=lambda x: c * x,
        x0=x0,
    )


def _problem(c: float, a: float, b: float, orientation: Orientation, kappa: float,
             max_proposals: int = 10**6) -> ExactProblem:
    sde = _unit_sde(c)
    th = linear_threshold(a, b, orientation)
    gammas = make_gamma_pair(sde, th).with_kappa(kappa)
    return ExactProblem(
        sde=sde, threshold=th, gammas=gammas,
        proposal=default_proposal(th), max_proposals=max_proposals,
    )


# --- bridge recursion --------------------------------------------------------


def test_bridge_step_conditional_moments():
    rng = np.random.default_rng(31)
    state = BridgeState(l=np.array([1.0, 0.0, 0.0]), E0=0.2, E1=0.5)
    tau = 1.0
    n = 100_000
    out = np.empty((n, 3))
    for i in range(n):
        out[i] = bridge_step(state, tau, rng.standard_normal(3)).l
    c1 = (tau - 0.5) / (tau - 0.2)
    c2_sq = (tau - 0.5) * (0.5 - 0.2) / (tau - 0.2)
    se_mean = math.sqrt(c2_sq / n)
    np.testing.assert_allclose(out.mean(axis=0), [c1, 0.0, 0.0], atol=3.1 * se_mean)
    se_var = c2_sq * math.sqrt(2.0 / n)
    np.testing.assert_allclose(out.var(axis=0, ddof=1), c2_sq, atol=3.1 * se_var)


def test_bridge_step_validates_inputs():
    with pytest.raises(ParameterError):
        BridgeState(l=np.zeros(2), E0=0.0, E1=1.0)
    with pytest.raises(ParameterError):
        BridgeState(l=np.zeros(3), E0=2.0, E1=1.0)
    state = BridgeState(l=np.zeros(3), E0=0.0, E1=2.0)
    with pytest.raises(ParameterError):
        bridge_step(state, 1.0, np.zeros(3))  # pin before the current event


def test_bridge_step_at_the_pin_collapses_to_zero():
    state = BridgeState(l=np.array([0.7, -0.2, 0.1]), E0=0.3, E1=1.0)
    stepped = bridge_step(state, 1.0, np.random.default_rng(0).standard_normal(3))
    np.testing.assert_allclose(stepped.l, 0.0, atol=1e-15)


# --- thinning law ------------------------------------------------------------


@pytest.mark.parametrize(
    "intensity,horizon,integral",
    [
        (lambda t: 0.37, 2.0, 0.74),
        (lambda t: 0.2 + 0.3 * t, 2.0, 1.0),
    ],
)
def test_thinning_reproduces_void_probability(intensity, horizon, integral):
    rng = np.random.default_rng(32)
    n = 100_000
    zeros = sum(run_thinning_trial(intensity, horizon, 1.5, rng) == 0 for i in range(n))
    p = math.exp(-integral)
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(zeros / n - p) < 3.0 * se


@pytest.mark.parametrize(
    "intensity,error",
    [
        (lambda t: 2.0, AssumptionViolation),
        (lambda t: float("nan"), DomainError),
    ],
    ids=["above_kappa", "nan"],
)
def test_thinning_rejects_intensity_above_kappa(intensity, error):
    rng = np.random.default_rng(33)
    with pytest.raises(error):
        for _ in range(200):
            run_thinning_trial(intensity, 1.0, 1.0, rng)


# --- end-to-end closed-form laws --------------------------------------------


def test_zero_drift_above_start_reduces_to_the_proposal_law():
    # gamma1 = gamma2 = 0, so every proposal is accepted and the accepted law
    # is the Brownian passage law to the falling line itself
    prob = _problem(0.0, -1.0, 0.5, Orientation.ABOVE_START, kappa=1.0)
    draws = sample_batch(prob, 20000, 41)
    assert all(d.proposals == 1 for d in draws)
    x = np.array([d.time for d in draws])
    d, p = ks_one_sample(x, lambda t: inverse_gaussian_cdf(t, 0.5, 0.25))
    assert p > 0.01


def test_constant_drift_to_constant_level_is_inverse_gaussian():
    # dX = c dt + dB to level b: tau ~ IG(b/c, b^2); exercises proposals,
    # thinning and acceptance with a non-trivial gamma2 = c^2/2
    c, b = 1.0, 1.0
    prob = _problem(c, 0.0, b, Orientation.ABOVE_START, kappa=c * c / 2.0)
    draws = sample_batch(prob, 20000, 42)
    x = np.array([d.time for d in draws])
    d, p = ks_one_sample(x, lambda t: inverse_gaussian_cdf(t, b / c, b * b))
    assert p > 0.01
    assert any(d.proposals > 1 for d in draws)


@pytest.mark.parametrize("c", [0.8, 1.2])
def test_flat_threshold_with_reference_drift_is_a_linear_proposal(c):
    # dX = c dt + dB to level 1 measured against BM with drift g = 0.8: the
    # default proposal of a flat threshold is the falling line 1 - g t, and
    # the passage law is IG(1/c, 1) whatever g is
    g, level = 0.8, 1.0
    sde = _unit_sde(c)
    th = linear_threshold(0.0, level, Orientation.ABOVE_START)
    assert default_proposal(th) == Proposal("linear")
    gammas = make_gamma_pair(sde, th, reference_drift=g).with_kappa(0.5)  # gamma2 = (c^2 - g^2)/2
    prob = ExactProblem(sde=sde, threshold=th, gammas=gammas, proposal=default_proposal(th))
    draws = sample_batch(prob, 20000, 44)
    x = np.array([d.time for d in draws])
    _, p = ks_one_sample(x, lambda t: inverse_gaussian_cdf(t, level / c, level * level))
    assert p > 0.01
    assert all(d.finite for d in draws)


def test_below_start_zero_drift_matches_reflected_line_law():
    # BM to the rising line -1 + 0.5 t from below: by symmetry the law is the
    # passage of BM to the falling line 1 - 0.5 t, i.e. IG(2, 1)
    prob = _problem(0.0, 0.5, -1.0, Orientation.BELOW_START, kappa=1.0)
    draws = [sample_exact_below(prob, np.random.default_rng(100 + i)) for i in range(20000)]
    x = np.array([d.time for d in draws])
    d, p = ks_one_sample(x, lambda t: inverse_gaussian_cdf(t, 2.0, 1.0))
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


def test_kappa_too_small_is_caught_not_silently_biased():
    prob = example1_problem()
    lowered = ExactProblem(
        sde=prob.sde,
        threshold=prob.threshold,
        gammas=prob.gammas.with_kappa(0.5),
        proposal=prob.proposal,
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
        "constant": _problem(0.0, 0.0, 1.0, Orientation.ABOVE_START, 1.0),
        "falling_line": example1_problem(),
        # hits with probability exp(-1): most draws redraw a non-hitting line
        "rising_line": _problem(0.0, 1.0, 0.5, Orientation.ABOVE_START, 1.0),
        "below_start": _problem(-1.0, 0.5, -0.5, Orientation.BELOW_START, 1.5),
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
    # every thinning event evaluates gamma1 once, and nothing else does
    events = []
    prob = _plain_float_problems()[name]
    gamma1 = prob.gammas.gamma1
    prob = replace(
        prob, gammas=replace(prob.gammas, gamma1=lambda t: events.append(t) or gamma1(t))
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


# --- space splitting ---------------------------------------------------------


def test_split_preserves_the_law():
    prob = example1_problem()
    base = np.array([d.time for d in sample_batch(prob, 8000, 48)])
    for k in (2, 4):
        split = np.array([d.time for d in sample_batch(prob, 8000, 48, split=k)])
        d, p = ks_two_sample(base, split)
        assert p > 0.01


def test_split_requires_above_start_linear():
    prob = _problem(0.0, 0.5, -1.0, Orientation.BELOW_START, kappa=1.0)
    with pytest.raises(ConfigurationError):
        sample_exact_split(prob, 2, np.random.default_rng(49))
    with pytest.raises(ParameterError):
        sample_exact_split(example1_problem(), 0, np.random.default_rng(50))


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


def test_expected_proposals_accounts_for_reference_drift():
    c, b, g = 1.0, 1.0, 0.5
    sde = _unit_sde(c)
    th = linear_threshold(0.0, b, Orientation.ABOVE_START)
    gammas = make_gamma_pair(sde, th, reference_drift=g).with_kappa(1.0)
    prob = ExactProblem(sde=sde, threshold=th, gammas=gammas,
                        proposal=Proposal("linear"))
    manual = math.exp((c * b - g * b) - 0.0)
    assert expected_proposals(prob) == pytest.approx(manual, rel=1e-12)


def test_proposal_kind_validation():
    with pytest.raises(ConfigurationError):
        Proposal("bogus")
    with pytest.raises(ConfigurationError):
        Proposal("constant")  # flat lines are linear proposals
    with pytest.raises(ConfigurationError):
        Proposal("curvy")  # needs CurvyParams


def test_linear_intercept_on_the_wrong_side_is_refused_at_construction():
    # beta(0) = 1 lies above x0 = 0, but the line the proposals would use,
    # -t - 0.5, starts below it
    sde = _unit_sde(0.0)
    th = Threshold(
        beta=lambda t: 1.0 - t,
        beta_prime=lambda t: -1.0,
        orientation=Orientation.ABOVE_START,
        inf_slope=-1.0,
        sup_slope=-1.0,
        linear=(-1.0, -0.5),
    )
    gammas = make_gamma_pair(sde, th).with_kappa(1.0)
    with pytest.raises(ConfigurationError, match="intercept"):
        ExactProblem(sde=sde, threshold=th, gammas=gammas, proposal=Proposal("linear"))


@pytest.mark.parametrize("name", ["falling_line", "below_start", "curved"])
def test_each_problem_builds_one_proposal_frame(monkeypatch, name):
    built = []
    original = Threshold.proposal_frame

    def counting(self, *args, **kwargs):
        built.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Threshold, "proposal_frame", counting)
    prob = _plain_float_problems()[name]
    assert sum(th is prob.threshold for th in built) == 1
    built.clear()
    sample_batch(prob, 20, 54)
    assert built == []


def test_split_stage_kernels_match_public_stage_problems(monkeypatch):
    # each split stage is built in kernel form only; rebuilt as a checked
    # public problem (start on the far side, positive line intercept), it
    # must give the same kernel values
    stages = []
    original = exact_module._sample_oriented

    def recording(kernel, rng):
        d = original(kernel, rng)
        stages.append((kernel, d))
        return d

    monkeypatch.setattr(exact_module, "_sample_oriented", recording)
    prob = example1_problem()
    k = 3
    for i in range(4):
        stages.clear()
        sample_exact_split(prob, k, substream(56, i))
        assert len(stages) == k
        a, b = prob.threshold.linear
        x0 = prob.sde.x0
        t_acc, x_cur = 0.0, x0
        for j, (kernel, d) in enumerate(stages, start=1):
            intercept = a * t_acc + (x0 + (b - x0) * (j / k))
            th = linear_threshold(a, intercept, Orientation.ABOVE_START)
            sde = replace(prob.sde, x0=x_cur)
            gammas = replace(
                make_gamma_pair(sde, th, prob.gammas.reference_drift),
                shift1=prob.gammas.shift1, shift2=prob.gammas.shift2, kappa=prob.gammas.kappa,
            )
            public = ExactProblem(sde=sde, threshold=th, gammas=gammas,
                                  proposal=Proposal("linear"), max_proposals=prob.max_proposals)
            theirs = public._kernel
            for name in ("sign", "shift1", "shift2", "kappa", "ceiling", "delta",
                         "max_proposals", "line", "curvy"):
                assert getattr(kernel, name) == getattr(theirs, name), name
            for t in (0.0, 0.3, 1.7):
                assert kernel.beta(t) == theirs.beta(t)
                assert kernel.gamma1(t) == theirs.gamma1(t)
                assert kernel.gamma2(intercept - t) == theirs.gamma2(intercept - t)
            x_cur = a * d.time + intercept
            t_acc += d.time


# --- refusals -----------------------------------------------------------------


def _exactly(message: str) -> str:
    return "^" + re.escape(message) + "$"


def _unbounded_problem():
    sde = _unit_sde(0.0)
    th = linear_threshold(-1.0, 1.0, Orientation.ABOVE_START)
    return ExactProblem(sde=sde, threshold=th, gammas=make_gamma_pair(sde, th))


def _linear_proposal_on_a_curve():
    sde = _unit_sde(0.0)
    th = exponential_threshold(1.0, 1.0)
    return ExactProblem(sde=sde, threshold=th, gammas=make_gamma_pair(sde, th).with_kappa(1.0),
                        proposal=Proposal("linear"))


def _drifted_problem(g: float) -> ExactProblem:
    sde = _unit_sde(0.0)
    th = linear_threshold(-1.0, 1.0, Orientation.ABOVE_START)
    return ExactProblem(sde=sde, threshold=th,
                        gammas=make_gamma_pair(sde, th, reference_drift=g).with_kappa(1.0))


_REFUSALS = {
    "kappa_unset": (_unbounded_problem, ConfigurationError,
                    "gammas.kappa must be set for sampling"),
    "no_budget": (lambda: example1_problem(max_proposals=0), ParameterError,
                  "max_proposals must be >= 1, got 0"),
    "linear_proposal_on_a_curve": (_linear_proposal_on_a_curve, ConfigurationError,
                                   "linear proposals require a linear threshold"),
    "sample_exact_below_start": (
        lambda: sample_exact(_plain_float_problems()["below_start"], substream(57, 0)),
        ConfigurationError,
        "sample_exact handles above-start problems; use sample_exact_below",
    ),
    "sample_exact_below_above_start": (
        lambda: sample_exact_below(example1_problem(), substream(57, 0)), ConfigurationError,
        "sample_exact_below handles below-start problems; use sample_exact",
    ),
    "split_on_a_curve": (
        lambda: sample_exact_split(example2_problem(), 2, substream(57, 0)),
        ConfigurationError, "space splitting requires a linear threshold",
    ),
    # the first of four stages starts at level 1 + 2**-54, which rounds to x0
    "split_stage_intercept_rounds_to_0": (
        lambda: sample_exact_split(example1_problem(x0=1.0, b=1.0 + 2.0**-52), 4,
                                   substream(57, 0)),
        ConfigurationError, "translated proposal intercept 0.0 must be positive",
    ),
    # a start gap that is not finite would burn the budget, fail in numpy's
    # Wald draw or return time 0 for every draw
    "nan_reference_drift": (
        lambda: _drifted_problem(math.nan), ParameterError,
        "start gap nan is not a positive finite number: x0 = 0.0, reference drift = nan",
    ),
    "inf_reference_drift": (
        lambda: _drifted_problem(math.inf), ParameterError,
        "start gap nan is not a positive finite number: x0 = 0.0, reference drift = inf",
    ),
    "start_at_minus_inf": (
        lambda: example1_problem(x0=-math.inf), ParameterError,
        "start gap inf is not a positive finite number: x0 = -inf, reference drift = 0.0",
    ),
}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_each_refusal_raises_its_type_and_message(name):
    build, error, message = _REFUSALS[name]
    with pytest.raises(error, match=_exactly(message)):
        build()


@pytest.mark.parametrize("curved", [False, True])
def test_trusted_problem_refuses_a_wrong_side_start_as_the_constructor_does(curved):
    sde = _unit_sde(0.0, x0=2.0)
    if curved:
        th = exponential_threshold(1.0, 1.0)
        proposal = Proposal("curvy", CurvyParams(epsilon=2.0**-4, r=-1.0))
    else:
        th = linear_threshold(-1.0, 1.0, Orientation.ABOVE_START)
        proposal = Proposal("linear")
    gammas = make_gamma_pair(sde, th).with_kappa(1.0)
    messages = []
    for build in (ExactProblem, exact_module._trusted_problem):
        with pytest.raises(ConfigurationError, match="wrong side") as info:
            build(sde, th, gammas, proposal, 10)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


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
    trusted = exact_module._trusted_problem(
        replace(prob.sde, x0=0.1), prob.threshold, prob.gammas, prob.proposal,
        prob.max_proposals,
    )
    assert trusted._kernel.delta <= prob.proposal.curvy.epsilon
    draws = [sample_exact(trusted, substream(58, i)) for i in range(10)]
    assert draws == [FptDraw(0.0, True, 1, 0, 0)] * 10
