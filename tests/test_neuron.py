"""Adaptive-threshold neuron: transform, threshold dynamics, spike trains."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import fptsim.exact as exact_module
from fptsim import neuron
from fptsim.errors import DomainError, ParameterError, SequencingError
from fptsim.exact import (
    ExactProblem,
    _Kernel,
    expected_proposals,
    sample_batch,
    sample_exact_below,
)
from fptsim.model import Threshold, make_gamma_pair
from fptsim.neuron import (
    PROPOSAL_SLACK,
    TANGENT_MARGIN,
    _RATE_PIECES,
    NeuronParams,
    SpikeTrain,
    _draw_interval,
    _StageBounds,
    apply_spike,
    initial_state,
    inter_spike_intervals,
    pooled_isi_cv,
    simulate_spike_train,
    simulate_trials,
    summarize_trains,
    threshold_value,
    transform_neuron,
    write_spike_trains_csv,
)
from fptsim.rng import substream


# --- adaptive threshold --------------------------------------------------------


def test_threshold_decay_closed_form():
    p = NeuronParams()
    s = initial_state(p)
    assert threshold_value(s, p, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert threshold_value(s, p, 1.0) == pytest.approx(1.0 + math.exp(-1.0), abs=1e-12)
    assert threshold_value(s, p, 50.0) == pytest.approx(p.theta0, abs=1e-12)


def test_threshold_rejects_times_before_last_spike():
    p = NeuronParams()
    s = apply_spike(initial_state(p), p, 0.5)
    with pytest.raises(SequencingError):
        threshold_value(s, p, 0.25)


def test_spike_jump_size():
    p = NeuronParams(delta=0.7, tau1=2.0)
    s0 = initial_state(p)
    t = 0.5
    level = threshold_value(s0, p, t)
    s1 = apply_spike(s0, p, t)
    assert s1.last_spike == t
    assert s1.theta_plus == pytest.approx(level + 0.7 / 2.0, abs=1e-12)
    assert threshold_value(s1, p, t) == pytest.approx(level + 0.35, abs=1e-12)


def test_params_validation():
    with pytest.raises(ParameterError):
        NeuronParams(tau_m=0.0)
    with pytest.raises(ParameterError):
        NeuronParams(sigma=0.0)
    with pytest.raises(ParameterError):
        NeuronParams(tau1=-1.0)
    with pytest.raises(ParameterError):
        NeuronParams(v0=0.0)
    with pytest.raises(ParameterError):
        NeuronParams(v_reset=-0.5)
    with pytest.raises(ParameterError, match="^initial threshold theta0 \\+ 1 = 2.0 must exceed"):
        NeuronParams(theta0=1.0, v0=2.5)
    for theta0 in (0.0, -0.1, -0.5):
        with pytest.raises(ParameterError, match="^theta0 must be positive"):
            NeuronParams(theta0=theta0, v0=0.2)
    for name in ("I", "V_r", "sigma", "theta0", "delta", "v_reset"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ParameterError, match=f"^{name} must be finite"):
                NeuronParams(**{name: value})
    # a threshold that never decays
    assert NeuronParams(tau1=math.inf).tau1 == math.inf


def test_params_refuse_a_negative_adaptation_and_a_reset_at_a_post_spike_threshold():
    # a negative delta lowers the threshold at each spike; a reset voltage
    # must lie below the post-spike levels, whose infimum is theta0 +
    # delta/tau1, or theta0 + 1 when the threshold never decays
    with pytest.raises(ParameterError, match="^delta must be >= 0, got -0.5$"):
        NeuronParams(delta=-0.5)
    for kwargs, floor in (({"v_reset": 1.5, "delta": 0.5}, 1.5),
                          ({"v_reset": 1.3, "delta": 0.6, "tau1": 2.0}, 1.3),
                          ({"v_reset": 2.0, "tau1": math.inf}, 2.0),
                          ({"V_r": 1.2, "delta": 0.0}, 1.0)):
        with pytest.raises(ParameterError, match=re.escape(
                f"must be below every post-spike threshold level, whose infimum is {floor}")):
            NeuronParams(**kwargs)
    assert NeuronParams(delta=0.0, v_reset=0.99).v_reset == 0.99
    assert NeuronParams(v_reset=1.99, tau1=math.inf).v_reset == 1.99


def test_drift_coefficients():
    assert NeuronParams(I=0.0).drift_coefficients() == pytest.approx((1.5, -1.0), abs=1e-12)
    assert NeuronParams(I=20.0).drift_coefficients() == pytest.approx((-18.5, -1.0), abs=1e-12)


# --- log-transformed interval problem ------------------------------------------


def test_transform_first_interval_geometry():
    p = NeuronParams()
    sde, th, gammas = transform_neuron(p)
    assert sde.x0 == pytest.approx(0.0, abs=1e-12)  # -ln(v0) with v0 = 1
    assert th.beta(0.0) < sde.x0  # passed from above in x
    assert th.beta(0.0) == pytest.approx(-math.log(2.0), abs=1e-12)
    # d/dt of -ln(theta(t)) at t=0: (theta(0) - theta0) / (tau1 * theta(0))
    assert th.beta_prime(0.0) == pytest.approx(0.5, abs=1e-12)
    # declared TANGENT_MARGIN looser, so the curvy lines run that much below
    # the frame's exact slope bound g - 0.5
    assert th.sup_slope == pytest.approx(0.5 + TANGENT_MARGIN, abs=1e-12)
    assert th.inf_slope == 0.0
    frame = th.proposal_frame(sde.x0, gammas.reference_drift)
    assert frame.inf_slope == gammas.reference_drift - th.sup_slope
    c, d = p.drift_coefficients()
    for x in (-0.5, 0.0, 1.0, 3.0):
        assert sde.alpha(x) == pytest.approx(c + d * math.exp(-x), abs=1e-12)
        assert sde.alpha_prime(x) == pytest.approx(-d * math.exp(-x), abs=1e-12)


@pytest.mark.parametrize("current", [0.0, 20.0])
def test_stage_rate_sum_is_admissible_on_a_dense_grid(current):
    p = NeuronParams(I=current)
    sde, th, gammas = transform_neuron(p)
    for t in np.linspace(0.0, 7.0, 120):
        lo = th.beta(float(t))
        for x in np.linspace(lo, lo + 3.0, 40):
            v = gammas.evaluate(float(t), float(x))  # raises if outside [0, kappa]
            assert v >= 0.0


# Later-stage geometries: the threshold peak after several spikes, a stage
# offset and a time shift into the interval, both signs of tau_m.
_OFFSET, _SHIFT, _HORIZON = 0.3, 0.8, 7.0
_LATER_STAGES = [
    pytest.param(theta_plus, current, tau_m, id=f"thp{theta_plus:g}-I{current:g}-tau{tau_m:+g}")
    for theta_plus in (2.0, 5.0, 8.0)
    for current, tau_m in ((0.0, -1.0), (20.0, -1.0), (20.0, 1.0))
]


def _later_stage(theta_plus, current, tau_m):
    p = NeuronParams(I=current, tau_m=tau_m)
    theta_start = p.theta0 + (theta_plus - p.theta0) * math.exp(-_SHIFT / p.tau1)
    bounds = _StageBounds(p, theta_plus, [_OFFSET], _SHIFT, _HORIZON)
    prob = bounds.problem(
        0, _SHIFT, x_start=-math.log(theta_start) / p.sigma + _OFFSET + 1.0,
        horizon=_HORIZON, max_proposals=10**6,
    )
    return p, prob


@pytest.mark.parametrize("theta_plus, current, tau_m", _LATER_STAGES)
def test_later_stage_rate_sum_is_admissible_between_pieces(theta_plus, current, tau_m):
    _, prob = _later_stage(theta_plus, current, tau_m)
    # a uniform mesh plus midpoints of a 4097-point grid, off every piece end
    ts = np.concatenate(
        [np.linspace(0.0, _HORIZON, 150), (np.arange(0, 4096, 41) + 0.5) * _HORIZON / 4096]
    )
    for t in ts:
        lo = prob.threshold.beta(float(t))
        for x in np.linspace(lo, lo + 3.0, 25):
            assert prob.gammas.evaluate(float(t), float(x)) >= 0.0  # raises outside [0, kappa]


@pytest.mark.parametrize("theta_plus, current, tau_m", _LATER_STAGES)
def test_later_stage_drift_and_kappa_are_tight(theta_plus, current, tau_m):
    p, prob = _later_stage(theta_plus, current, tau_m)
    g, kappa = prob.gammas.reference_drift, prob.gammas.kappa
    c, d = p.drift_coefficients()
    sigma = p.sigma

    def q(u):
        return d * d * u * u + (2.0 * c * d - sigma * d) * u + c * c

    w = np.linspace(0.0, _HORIZON, 10**5)
    theta = p.theta0 + (theta_plus - p.theta0) * np.exp(-(_SHIFT + w) / p.tau1)
    u = theta * math.exp(-sigma * _OFFSET)
    bp = (theta - p.theta0) / (p.tau1 * sigma * theta)
    alpha = c + d * u
    u_vertex = (sigma - 2.0 * c) / (2.0 * d)
    q_inf = q(np.minimum(u, u_vertex)) if u_vertex > 0.0 else np.full_like(u, c * c)
    lo = float((bp - np.sqrt(bp * bp + q_inf - 2.0 * alpha * bp)).max())
    assert lo <= g <= lo + 0.05
    sup2 = max(0.0, 0.5 * (max(c * c, q(float(u.max()))) - g * g))
    rate_max = max(0.0, float(((g - alpha) * bp).max())) + sup2
    assert rate_max <= kappa <= 1.02 * rate_max


# Interval stages that start off the piece grid: strictly inside a piece and
# exactly at a piece end, for both signs of tau_m.
_T_END = 7.0
_INTERVAL_STAGES = [
    pytest.param(current, tau_m, where, id=f"I{current:g}-tau{tau_m:+g}-{where}")
    for current, tau_m in ((0.0, -1.0), (20.0, -1.0), (20.0, 1.0))
    for where in ("inside", "at_end")
]


def _interval_bounds(current, tau_m, theta_plus=5.0, v=1.0, k=4):
    p = NeuronParams(I=current, tau_m=tau_m)
    offsets = [
        math.log(theta_plus / (v + (theta_plus - v) * (i / k))) / p.sigma
        for i in range(1, k + 1)
    ]
    return _StageBounds(p, theta_plus, offsets, 0.0, _T_END)


@pytest.mark.parametrize("current, tau_m, where", _INTERVAL_STAGES)
def test_interval_stages_off_the_grid_are_admissible_between_pieces(current, tau_m, where):
    bounds = _interval_bounds(current, tau_m)
    piece = _T_END / _RATE_PIECES
    for i, j in ((0, 2), (2, 17), (3, 40)):
        s = (j + 0.37) * piece if where == "inside" else bounds.ends[j]
        horizon = _T_END - s
        prob = bounds.problem(i, s, x_start=0.0, horizon=horizon, max_proposals=10**6)
        # a mesh ten times finer than the pieces, shifted off their ends
        ws = np.concatenate([[0.0, horizon], (np.arange(0, 640) + 0.5) * horizon / 640])
        for w in ws:
            lo = prob.threshold.beta(float(w))
            for x in np.linspace(lo, lo + 3.0, 12):
                assert prob.gammas.evaluate(float(w), float(x)) >= 0.0  # raises outside [0, kappa]


@pytest.mark.parametrize("current, tau_m", [(0.0, -1.0), (20.0, -1.0), (20.0, 1.0)])
def test_stage_rates_match_make_gamma_pair(current, tau_m):
    bounds = _interval_bounds(current, tau_m)
    prob = bounds.problem(2, 1.3, x_start=0.0, horizon=_T_END - 1.3, max_proposals=10**6)
    generic = make_gamma_pair(prob.sde, prob.threshold, prob.gammas.reference_drift)
    for w in np.linspace(0.0, _T_END - 1.3, 50):
        w = float(w)
        assert prob.gammas.gamma1(w) == pytest.approx(generic.gamma1(w), rel=1e-12, abs=1e-12)
        lo = prob.threshold.beta(w)
        for x in np.linspace(lo, lo + 3.0, 7):
            x = float(x)
            assert prob.gammas.gamma2(x) == pytest.approx(generic.gamma2(x), rel=1e-12, abs=1e-12)


def test_one_stage_interval_matches_stage_problem(monkeypatch):
    # theta_plus - v = 1 with |d| = sigma = 1 makes a one-stage interval
    p = NeuronParams(I=20.0)
    built = []

    def recording(problem, rng, *, streams=None):
        built.append(problem)
        return sample_exact_below(problem, rng, streams=streams)

    monkeypatch.setattr(neuron, "sample_exact_below", recording)
    _draw_interval(p, 2.0, 1.0, 2.0, np.random.default_rng(5), 10**6)
    assert len(built) == 1
    bounds = _StageBounds(p, 2.0, [0.0], 0.0, 2.0 + PROPOSAL_SLACK)
    single = bounds.problem(0, 0.0, x_start=0.0, horizon=2.0 + PROPOSAL_SLACK,
                            max_proposals=10**6)
    for prob in (built[0], single):
        assert prob.curvy.horizon == 2.0 + PROPOSAL_SLACK
    assert built[0].gammas.reference_drift == single.gammas.reference_drift
    assert built[0].gammas.kappa == single.gammas.kappa
    assert built[0]._kernel.curvy[0].inf_slope == single._kernel.curvy[0].inf_slope
    assert built[0].sde.x0 == single.sde.x0


def _recording_stages(monkeypatch):
    """Make ``neuron`` record each stage problem and its draw."""
    stages = []

    def recording(problem, rng, *, streams=None):
        draw = sample_exact_below(problem, rng, streams=streams)
        stages.append((problem, draw))
        return draw

    monkeypatch.setattr(neuron, "sample_exact_below", recording)
    return stages


def test_stages_are_two_units_wide(monkeypatch):
    # theta_plus - v = 4 with |d| = sigma = 1 took four stages one unit wide
    stages = _recording_stages(monkeypatch)
    t_local, draws = _draw_interval(NeuronParams(I=20.0), 5.0, 1.0, 100.0,
                                    np.random.default_rng(6), 10**6)
    assert t_local is not None
    assert len(stages) == len(draws) == 2
    # the intermediate threshold sits halfway in u (u = 3 at interval time 0),
    # and the second stage, started at the first passage, ends on theta itself
    assert stages[0][0].threshold.beta(0.0) == pytest.approx(-math.log(3.0), abs=1e-12)
    theta = 1.0 + 4.0 * math.exp(-draws[0].time)
    assert stages[1][0].threshold.beta(0.0) == pytest.approx(-math.log(theta), abs=1e-12)


def test_stage_width_leaves_the_spike_count_law_unchanged(monkeypatch):
    # every stage is an exact passage, so the width moves cost, not the law
    p = NeuronParams(I=20.0)
    wide = np.array([t.count for t in simulate_trials(p, 2.0, 400, 81)], dtype=float)
    monkeypatch.setattr(neuron, "_STAGE_WIDTH", 1.0)
    narrow = np.array([t.count for t in simulate_trials(p, 2.0, 400, 82)], dtype=float)
    se = math.sqrt(wide.var(ddof=1) / wide.size + narrow.var(ddof=1) / narrow.size)
    assert abs(wide.mean() - narrow.mean()) < 4.0 * se


def test_stage_proposals_follow_the_cost_model(monkeypatch):
    # the width rests on exp(A_g(beta) - A_g(x0)) proposals per stage
    stages = _recording_stages(monkeypatch)
    simulate_trials(NeuronParams(I=20.0), 2.0, 30, 83)
    expected = np.array([expected_proposals(problem) for problem, _ in stages])
    observed = np.array([draw.proposals for _, draw in stages], dtype=float)
    se = observed.std(ddof=1) / math.sqrt(observed.size)
    assert abs(observed.mean() - expected.mean()) < 4.0 * se


def test_stage_acceptance_identity_at_strong_current():
    p = NeuronParams(I=20.0)
    bounds = _StageBounds(p, 2.0, [0.0], 0.0, 7.0)
    prob = bounds.problem(0, 0.0, x_start=0.0, horizon=7.0, max_proposals=10**6)
    target = expected_proposals(prob)
    draws = sample_batch(prob, 3000, 70)
    assert all(d.finite for d in draws)
    counts = np.array([d.proposals for d in draws], dtype=float)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - target) < 3.0 * se


# --- spike trains ---------------------------------------------------------------


def test_spike_train_validation():
    p = NeuronParams()
    with pytest.raises(ParameterError):
        SpikeTrain(times=(0.5, 0.5), horizon=1.0, params=p)
    with pytest.raises(ParameterError):
        SpikeTrain(times=(-0.1,), horizon=1.0, params=p)
    with pytest.raises(ParameterError):
        SpikeTrain(times=(1.0,), horizon=1.0, params=p)


def test_simulated_trains_are_well_formed_and_deterministic():
    p = NeuronParams(I=20.0)
    trains = simulate_trials(p, 2.0, 5, 71)
    again = simulate_trials(p, 2.0, 5, 71)
    assert [t.times for t in trains] == [t.times for t in again]
    assert any(t.count > 0 for t in trains)
    for train in trains:
        assert all(b > a for a, b in zip(train.times, train.times[1:]))
        assert all(0.0 <= t < 2.0 for t in train.times)


def test_trains_count_their_stage_draws():
    trains = simulate_trials(NeuronParams(I=20.0), 2.0, 4, 75)
    for train in trains:
        assert train.stages >= train.count
        assert train.proposals >= train.stages
        assert train.clock_events >= 0
    s = summarize_trains(trains)
    assert s["stages"] == sum(t.stages for t in trains) >= s["total_spikes"]
    assert s["proposals"] == sum(t.proposals for t in trains) >= s["stages"]
    assert s["clock_events"] == sum(t.clock_events for t in trains)


def test_simulate_trials_trial_i_is_the_train_on_substream_i():
    p = NeuronParams(I=20.0)
    trains = simulate_trials(p, 1.0, 6, 72)
    assert trains == [simulate_spike_train(p, 1.0, substream(72, i)) for i in range(6)]


def test_stronger_current_spikes_more():
    quiet = simulate_trials(NeuronParams(I=0.0), 2.0, 8, 73)
    driven = simulate_trials(NeuronParams(I=20.0), 2.0, 8, 73)
    mean_quiet = np.mean([t.count for t in quiet])
    mean_driven = np.mean([t.count for t in driven])
    assert mean_driven > mean_quiet + 5.0


def test_leaky_membrane_also_runs():
    p = NeuronParams(tau_m=1.0, I=20.0)
    train = simulate_spike_train(p, 1.0, np.random.default_rng(74))
    assert train.horizon == 1.0  # smoke: chain runs under a positive tau_m


# --- interval statistics --------------------------------------------------------


def test_inter_spike_intervals_are_anchored_at_zero():
    p = NeuronParams()
    train = SpikeTrain(times=(1.0, 3.0), horizon=4.0, params=p)
    np.testing.assert_allclose(inter_spike_intervals(train), [1.0, 2.0])
    empty = SpikeTrain(times=(), horizon=4.0, params=p)
    assert inter_spike_intervals(empty).size == 0


def test_pooled_isi_cv_hand_value():
    p = NeuronParams()
    trains = [
        SpikeTrain(times=(1.0, 3.0), horizon=4.0, params=p),
        SpikeTrain(times=(2.0,), horizon=4.0, params=p),
    ]
    pooled = np.array([1.0, 2.0, 2.0])
    expected = pooled.std(ddof=1) / pooled.mean()
    assert pooled_isi_cv(trains) == pytest.approx(expected, rel=1e-12)


def test_pooled_isi_cv_degenerate_cases():
    p = NeuronParams()
    assert math.isnan(pooled_isi_cv([]))
    one = SpikeTrain(times=(1.0,), horizon=4.0, params=p)
    assert math.isnan(pooled_isi_cv([one]))


def test_summarize_trains_counts():
    p = NeuronParams()
    trains = [
        SpikeTrain(times=(1.0, 3.0), horizon=4.0, params=p),
        SpikeTrain(times=(), horizon=4.0, params=p),
    ]
    s = summarize_trains(trains)
    assert s["n_trials"] == 2
    assert s["mean_count"] == 1.0
    assert s["total_spikes"] == 2
    assert s["horizon"] == 4.0


def test_spike_train_csv_format(tmp_path):
    p = NeuronParams()
    trains = [
        SpikeTrain(times=(0.25, 1.5), horizon=4.0, params=p),
        SpikeTrain(times=(), horizon=4.0, params=p),
        SpikeTrain(times=(0.125,), horizon=4.0, params=p),
    ]
    path = tmp_path / "spikes.csv"
    write_spike_trains_csv(trains, path)
    assert path.read_text() == (
        "trial,spike_index,time\n"
        "0,0,0.25\n"
        "0,1,1.5\n"
        "2,0,0.125\n"
    )


# --- trusted stage construction -------------------------------------------------


@pytest.mark.parametrize("current, tau_m", [(0.0, -1.0), (20.0, -1.0), (20.0, 1.0)])
def test_trusted_stages_pass_the_public_checks(monkeypatch, current, tau_m):
    # every stage a train builds, rebuilt through the validated public
    # constructors: kappa set and positive, max_proposals >= 1, the start on
    # the threshold's far side and the CurvyParams checks all pass, and the
    # frame and the sampler's kernel come out equal
    built = []

    def recording(problem, rng, *, streams=None):
        built.append(problem)
        return sample_exact_below(problem, rng, streams=streams)

    monkeypatch.setattr(neuron, "sample_exact_below", recording)
    simulate_trials(NeuronParams(I=current, tau_m=tau_m), 1.0, 3, 76)
    assert len(built) > 3
    for trusted in built:
        public = ExactProblem(
            sde=replace(trusted.sde),
            threshold=replace(trusted.threshold),
            gammas=replace(trusted.gammas),
            curvy=replace(trusted.curvy),
            max_proposals=trusted.max_proposals,
        )
        assert public == trusted
        assert trusted.gammas.kappa > 0.0
        mine, theirs = trusted._kernel, public._kernel
        frame, public_frame = mine.curvy[0], theirs.curvy[0]
        for name in ("inf_slope", "sup_slope", "linear"):
            assert getattr(public_frame, name) == getattr(frame, name)
        for w in np.linspace(0.0, trusted.curvy.horizon, 9):
            w = float(w)
            assert public_frame.beta(w) == frame.beta(w)
            assert public_frame.beta_prime(w) == frame.beta_prime(w)
        for name in _Kernel._fields:
            if name == "curvy":
                assert mine.curvy[1] == theirs.curvy[1]
            else:
                assert getattr(mine, name) == getattr(theirs, name), name


def test_each_stage_builds_one_proposal_frame(monkeypatch):
    # the kernel builder frames every stage, once per stage on its own
    # threshold, and no frame is built while a stage samples
    framed = []
    stages = []
    original = exact_module._frame

    def counting(th, *args):
        framed.append(th)
        return original(th, *args)

    def recording(problem, rng, *, streams=None):
        stages.append(problem)
        return sample_exact_below(problem, rng, streams=streams)

    monkeypatch.setattr(exact_module, "_frame", counting)
    monkeypatch.setattr(neuron, "sample_exact_below", recording)
    simulate_trials(NeuronParams(I=20.0), 1.0, 2, 77)
    assert len(stages) > 3
    assert len(framed) == len(stages)
    assert all(th is prob.threshold for th, prob in zip(framed, stages))


class _CountingGenerator(np.random.Generator):
    """A generator that counts its numpy block calls and records their names."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = 0
        self.names = set()

    def _count(self, draw, *args, **kwargs):
        self.calls += 1
        self.names.add(draw.__name__)
        return draw(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        return self._count(super().standard_normal, *args, **kwargs)

    def random(self, *args, **kwargs):
        return self._count(super().random, *args, **kwargs)

    def standard_exponential(self, *args, **kwargs):
        return self._count(super().standard_exponential, *args, **kwargs)

    def exponential(self, *args, **kwargs):
        return self._count(super().exponential, *args, **kwargs)

    def wald(self, *args, **kwargs):
        return self._count(super().wald, *args, **kwargs)


def test_a_train_builds_its_streams_once():
    # stages share the train's block streams, so a train makes fewer numpy
    # calls than it has stages; with three streams per stage it made more
    rng = _CountingGenerator(84)
    train = simulate_spike_train(NeuronParams(I=20.0), 2.0, rng)
    assert train.stages > 20
    assert 0 < rng.calls < train.stages


def test_stage_draws_read_the_threshold_at_0_only_at_build():
    # the kernel holds the start gap phi(0), so curved proposals take it
    # from there and sampling never evaluates the threshold at 0
    stage = _StageBounds(NeuronParams(I=20.0), 2.0, [0.0], 0.0, 7.0).problem(
        0, 0.0, x_start=0.0, horizon=7.0, max_proposals=10**6)
    at_zero = []
    beta = stage.threshold.beta

    def recording(w):
        if w == 0.0:
            at_zero.append(w)
        return beta(w)

    prob = ExactProblem(sde=stage.sde, threshold=replace(stage.threshold, beta=recording),
                        gammas=stage.gammas, curvy=stage.curvy,
                        max_proposals=stage.max_proposals)
    built = len(at_zero)
    assert built >= 1
    draws = [sample_exact_below(prob, substream(85, i)) for i in range(20)]
    assert sum(d.proposals for d in draws) > 20
    assert len(at_zero) == built


def test_train_checks_its_budget_and_horizon_before_any_stage(monkeypatch):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage was built")

    monkeypatch.setattr(neuron, "_StageBounds", no_stage)
    p = NeuronParams(I=20.0)
    with pytest.raises(ParameterError, match="max_proposals"):
        simulate_spike_train(p, 1.0, np.random.default_rng(0), max_proposals=0)
    with pytest.raises(ParameterError, match="horizon"):
        simulate_spike_train(p, math.inf, np.random.default_rng(0))


@pytest.mark.parametrize("voltage", [2.0, 5.0])
def test_transform_refuses_a_start_above_the_threshold(voltage):
    # the initial threshold level is theta0 + 1 = 2: a start on it or above
    # it fails the check that every interval draw makes
    with pytest.raises(DomainError, match=f"^start voltage {voltage} is not strictly below "
                                          "the threshold level 2.0$"):
        transform_neuron(NeuronParams(), start_voltage=voltage)
