"""Quadratic leaky integrate-and-fire neuron with an adaptive threshold.

The membrane voltage follows

    dV = V * (I + (V_r - V)/tau_m) dt + sigma * V dB.

By Ito's formula, ``X = -(1/sigma) ln V`` solves
``dX = (sigma/2 - (I + (V_r - V)/tau_m)/sigma) dt - dB`` with ``V = exp(-sigma*X)``,
a unit-diffusion process (``-B`` is a Brownian motion) with drift

    alpha(x) = c + d * exp(-sigma*x),
    c = sigma/2 - I/sigma - V_r/(tau_m*sigma),     d = 1/(tau_m*sigma),

and the spike condition ``V = theta(t)`` becomes the passage of ``X`` to the
(below-start) threshold ``beta(t) = -(1/sigma) ln theta(t)``.  Between spikes
the firing threshold decays exponentially toward its baseline,

    theta(t) = theta0 + (theta(last_spike+) - theta0) * exp(-(t - last_spike)/tau1),

and each spike lifts it by ``delta/tau1``.  The first interval starts with
``theta(0) = theta0 + 1`` and voltage ``v0``; later intervals restart the
voltage at ``v_reset``.

Spike trains chain exact passage draws interval by interval.  Two measures
keep each interval draw both correct and affordable:

* **Reference drift (tilt).**  Instead of measuring against driftless
  Brownian motion, each stage measures against Brownian motion with a
  constant drift ``g`` chosen per stage, which moves the constant part of the
  quadratic rate into the proposal.  Correctness of the thinning step needs
  the combined rate to stay non-negative over reachable (time, state) pairs:

      (g - alpha(beta(t))) * beta'(t) + (inf_{u <= u(t)} q(u) - g^2) / 2 >= 0

  for all stage times ``t``, where ``q(u) = alpha' + alpha^2`` written in
  ``u = exp(-sigma*x)`` and ``u(t)`` is the threshold in those units.  The
  constraint is concave-quadratic in ``g``, so each time point contributes an
  interval of admissible drifts.  Within a stage ``theta`` is monotone in
  time, and so are ``beta'``, ``u(t)`` and ``alpha(beta(t))``; the builder
  cuts the stage into equal pieces, bounds each term on a piece by its
  values at the piece ends, and intersects the root intervals of those
  bounds.  The result holds at every stage time, not only at sampled ones
  (a rigorous bound, not a grid estimate).  It picks the smallest
  admissible ``g``, which minimizes the expected number of proposals (their
  cost exponent is increasing in ``g``), and bounds the time rate, and so
  ``kappa``, the same way.
* **Stage splitting.**  After several spikes the threshold sits far from the
  reset point in ``u = exp(-sigma*x)`` units, and single-shot acceptance
  degrades exponentially in that distance.  The interval passage is therefore
  chained through intermediate thresholds ``beta(t) + offset_i`` placed
  uniformly in ``u``, one exact draw per stage (the passage hits the ordered
  thresholds in sequence, so the summed stage times follow the interval law).

Caveat: for parameterizations where the voltage may decay toward zero and
never spike (small input current), an interval's passage law is defective.
The rejection sampler redraws horizon-censored proposals, so each stage draw
is implicitly conditioned on passage within its proposal horizon and "no
further spike" outcomes are under-represented relative to the defective model
law; orderings across input currents and dispersion comparisons are
unaffected in practice, but absolute spike-count levels at such
parameterizations are inflated.  (With a large input current the passage is
almost surely fast and the conditioning is immaterial.)
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .bm_fpt import CurvyParams, FptDraw
from .errors import (
    AssumptionViolation,
    DomainError,
    NonTerminationError,
    ParameterError,
    SequencingError,
)
from .exact import ExactProblem, Proposal, sample_exact_below
from .model import GammaPair, Orientation, Threshold, UnitDiffusionSDE, make_gamma_pair
from .rng import derive_seed, sample_many_indexed

__all__ = [
    "NeuronParams",
    "AdaptiveThresholdState",
    "SpikeTrain",
    "initial_state",
    "threshold_value",
    "apply_spike",
    "transform_neuron",
    "simulate_spike_train",
    "simulate_trials",
    "inter_spike_intervals",
    "pooled_isi_cv",
    "summarize_trains",
    "write_spike_trains_csv",
]

#: Resolution of the iterative curvy proposal sampler.
CURVY_EPSILON = 2.0**-4
#: Extra proposal time past the remaining simulation horizon.
PROPOSAL_SLACK = 5.0
#: Margin between the tangent slope and the steepest admissible slope.
TANGENT_MARGIN = 0.1
#: Number of equal stage-time pieces the rate bounds are taken over.
_RATE_PIECES = 64
#: Piece ends as fractions of the stage horizon.
_PIECE_ENDS = np.arange(_RATE_PIECES + 1) / _RATE_PIECES
_KAPPA_FLOOR = 1e-9


@dataclass(frozen=True)
class NeuronParams:
    """Membrane and threshold parameters (defaults: the reference experiment).

    ``tau_m`` is the (possibly negative) integration time constant, ``V_r``
    the resting potential, ``sigma`` the noise amplitude, ``v0`` the initial
    voltage, ``I`` the input current, ``theta0`` the threshold baseline,
    ``tau1`` the threshold decay constant, ``delta`` the adaptation strength
    and ``v_reset`` the post-spike voltage (defaults to ``V_r``).
    """

    tau_m: float = -1.0
    V_r: float = 1.0
    sigma: float = 1.0
    v0: float = 1.0
    I: float = 0.0
    theta0: float = 1.0
    tau1: float = 1.0
    delta: float = 1.0
    v_reset: float | None = None

    def __post_init__(self) -> None:
        if self.v_reset is None:
            object.__setattr__(self, "v_reset", self.V_r)
        if not (math.isfinite(self.tau_m) and self.tau_m != 0.0):
            raise ParameterError(f"tau_m must be finite and nonzero, got {self.tau_m}")
        if not self.sigma > 0.0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        if not self.tau1 > 0.0:
            raise ParameterError(f"tau1 must be positive, got {self.tau1}")
        if not self.v0 > 0.0:
            raise ParameterError(f"v0 must be positive, got {self.v0}")
        if not self.v_reset > 0.0:
            raise ParameterError(f"v_reset must be positive, got {self.v_reset}")
        if not self.theta0 + 1.0 > self.v0:
            raise ParameterError(
                f"initial threshold theta0 + 1 = {self.theta0 + 1.0} must exceed v0 = {self.v0}"
            )

    def drift_coefficients(self) -> tuple[float, float]:
        """``(c, d)`` of the transformed drift ``alpha(x) = c + d*exp(-sigma*x)``."""
        c = self.sigma / 2.0 - self.I / self.sigma - self.V_r / (self.tau_m * self.sigma)
        d = 1.0 / (self.tau_m * self.sigma)
        return c, d


@dataclass(frozen=True)
class AdaptiveThresholdState:
    """Threshold memory: time of the last spike and the level just after it."""

    last_spike: float
    theta_plus: float

    def __post_init__(self) -> None:
        if not self.last_spike >= 0.0:
            raise ParameterError(f"last_spike must be >= 0, got {self.last_spike}")
        if not math.isfinite(self.theta_plus):
            raise ParameterError(f"theta_plus must be finite, got {self.theta_plus}")


def initial_state(params: NeuronParams) -> AdaptiveThresholdState:
    """Pre-first-spike state: threshold starts one unit above baseline."""
    return AdaptiveThresholdState(last_spike=0.0, theta_plus=params.theta0 + 1.0)


def threshold_value(s: AdaptiveThresholdState, params: NeuronParams, t: float) -> float:
    """Threshold level at absolute time ``t >= s.last_spike``."""
    if t < s.last_spike:
        raise SequencingError(
            f"t = {t} precedes the last spike at {s.last_spike}"
        )
    decay = math.exp(-(t - s.last_spike) / params.tau1)
    return params.theta0 + (s.theta_plus - params.theta0) * decay


def apply_spike(
    s: AdaptiveThresholdState, params: NeuronParams, t_spike: float
) -> AdaptiveThresholdState:
    """Register a spike at ``t_spike``: the threshold jumps by ``delta/tau1``."""
    level = threshold_value(s, params, t_spike)
    return AdaptiveThresholdState(
        last_spike=t_spike, theta_plus=level + params.delta / params.tau1
    )


@dataclass(frozen=True)
class SpikeTrain:
    """Spike times of one trial, all strictly inside ``[0, horizon)``.

    ``stages``, ``proposals`` and ``clock_events`` sum the exact stage draws
    that produced the train (see :class:`~fptsim.bm_fpt.FptDraw`).
    """

    times: tuple[float, ...]
    horizon: float
    params: NeuronParams
    trial_seed: int = 0
    stages: int = 0
    proposals: int = 0
    clock_events: int = 0

    def __post_init__(self) -> None:
        prev = 0.0
        for i, t in enumerate(self.times):
            if not (t > prev if i else t >= 0.0):
                raise ParameterError("spike times must be strictly increasing and >= 0")
            if not t < self.horizon:
                raise ParameterError(f"spike at {t} is not before the horizon {self.horizon}")
            prev = t

    @property
    def count(self) -> int:
        return len(self.times)


def _box_max(a_lo, a_hi, b_lo, b_hi):
    """Upper bound of ``a*b`` over ``[a_lo, a_hi] x [b_lo, b_hi]``, elementwise.

    The product is bilinear, so its maximum over a box sits at a corner.
    """
    return np.maximum(
        np.maximum(a_lo * b_lo, a_lo * b_hi), np.maximum(a_hi * b_lo, a_hi * b_hi)
    )


def _stage_problem(
    params: NeuronParams,
    theta_plus: float,
    *,
    x_start: float,
    offset: float,
    time_shift: float,
    prop_horizon: float,
    max_proposals: int,
) -> ExactProblem:
    """Exact problem for one passage stage of an inter-spike interval.

    The stage threshold is ``beta(time_shift + w) + offset`` in stage-local
    time ``w``, where ``beta`` is the transformed interval threshold; the
    stage starts at ``x_start`` above it.  The builder picks the stage
    reference drift, bounds both rates (the space rate by its exact
    quadratic-in-``u`` form, the time rate by piecewise-monotone bounds:
    over each of ``_RATE_PIECES`` equal pieces of stage time, ``theta`` and
    with it ``beta'``, ``u`` and ``alpha`` lie between their piece-end
    values) and attaches the curvy proposal.  Both the drift constraint and
    ``kappa`` are rigorous at every stage time, not only at the piece ends.
    """
    sigma = params.sigma
    tau1 = params.tau1
    th0 = params.theta0
    thp = theta_plus
    if min(th0, thp) <= 0.0:
        raise DomainError(
            f"threshold levels must stay positive for the log transform, "
            f"got theta0={th0}, theta_plus={thp}"
        )
    c, d = params.drift_coefficients()

    def theta_loc(w: float) -> float:
        return th0 + (thp - th0) * math.exp(-(time_shift + w) / tau1)

    def beta(w: float) -> float:
        return -math.log(theta_loc(w)) / sigma + offset

    def beta_prime(w: float) -> float:
        theta = theta_loc(w)
        return (theta - th0) / (tau1 * sigma * theta)

    # slope range of beta (monotone in theta; same for every stage offset)
    slope_at_peak = (thp - th0) / (tau1 * sigma * thp)
    inf_slope = min(0.0, slope_at_peak)
    sup_slope = max(0.0, slope_at_peak)

    def q(u):
        return d * d * u * u + (2.0 * c * d - sigma * d) * u + c * c

    # theta is monotone in stage time, so on each of _RATE_PIECES equal pieces
    # it lies between its end values, and so do beta' (increasing in theta
    # for theta0 > 0) and alpha = c + d*u (linear in u = theta*scale)
    w_ends = prop_horizon * _PIECE_ENDS
    theta_ends = th0 + (thp - th0) * np.exp(-(time_shift + w_ends) / tau1)
    scale = math.exp(-sigma * offset)
    u_cap = float(max(theta_ends[0], theta_ends[-1])) * scale
    bp_ends = (theta_ends - th0) / (tau1 * sigma * theta_ends)
    alpha_ends = c + d * theta_ends * scale
    bp_lo = np.minimum(bp_ends[:-1], bp_ends[1:])
    bp_hi = np.maximum(bp_ends[:-1], bp_ends[1:])
    alpha_lo = np.minimum(alpha_ends[:-1], alpha_ends[1:])
    alpha_hi = np.maximum(alpha_ends[:-1], alpha_ends[1:])
    # infimum of q over the state range (0, u(t)]: q is convex, with its
    # limit c^2 at u -> 0+, so the infimum sits at the vertex when reachable;
    # it does not increase with u(t), so a piece's value at its largest u
    # bounds it from below
    if d != 0.0:
        u_vertex = (sigma - 2.0 * c) / (2.0 * d)
    else:
        u_vertex = -1.0
    if u_vertex > 0.0:
        u_hi = np.maximum(theta_ends[:-1], theta_ends[1:]) * scale
        q_low = q(np.minimum(u_hi, u_vertex))
    else:
        q_low = c * c
    ab_max = _box_max(alpha_lo, alpha_hi, bp_lo, bp_hi)

    # admissible reference drifts solve, for every stage time,
    #   (g - alpha)*beta' + (inf q - g^2)/2 >= slack.
    # On a piece the left side is at least g*B - g^2/2 + q_low/2 - ab_max for
    # B = bp_lo or bp_hi (it is linear in beta'), a concave quadratic in g;
    # the intersection of the 2*_RATE_PIECES root intervals is admissible at
    # every stage time, not only at the piece ends.
    slack = 1e-12
    lo, hi = -math.inf, math.inf
    for bp in (bp_lo, bp_hi):
        disc = bp * bp + q_low - 2.0 * ab_max - 2.0 * slack
        if float(disc.min()) < 0.0:
            raise AssumptionViolation(
                "no constant reference drift keeps the combined rate non-negative "
                f"over this stage (worst margin {float(disc.min())})"
            )
        root = np.sqrt(disc)
        lo = max(lo, float((bp - root).max()))
        hi = min(hi, float((bp + root).min()))
    if lo > hi:
        raise AssumptionViolation(
            "no constant reference drift keeps the combined rate non-negative "
            f"at all stage times (need g in [{lo}, {hi}])"
        )
    g = lo

    sde = UnitDiffusionSDE(
        alpha=lambda x: c + d * np.exp(-sigma * x),
        alpha_prime=lambda x: -sigma * d * np.exp(-sigma * x),
        A=lambda x: c * x - (d / sigma) * np.exp(-sigma * x),
        x0=x_start,
    )
    threshold = Threshold(
        beta=beta,
        beta_prime=beta_prime,
        orientation=Orientation.BELOW_START,
        inf_slope=inf_slope,
        sup_slope=sup_slope,
    )
    base = make_gamma_pair(sde, threshold, reference_drift=g)

    u_limit = u_cap * (1.0 + 1e-9)
    base_gamma2 = base.gamma2

    def gamma2(x: float) -> float:
        # domination bound: reconstructed states never leave the threshold's
        # far side, so exp(-sigma*x) must stay within the stage's u range
        if math.exp(-sigma * x) > u_limit:
            raise AssumptionViolation(
                f"state x={x} outside the stage domain (exp(-sigma*x) > {u_cap})"
            )
        return base_gamma2(x)

    # clock rate: positive-part suprema of each rate bound their sum; the
    # space rate is an exact endpoint value of a convex quadratic, the time
    # rate (g - alpha)*beta' is bounded piece by piece
    sup2 = max(0.0, 0.5 * (max(c * c, q(u_cap)) - g * g))
    sup1 = max(0.0, float(_box_max(g - alpha_hi, g - alpha_lo, bp_lo, bp_hi).max()))
    kappa = max(sup1 + sup2, _KAPPA_FLOOR)

    gammas = replace(base, gamma2=gamma2, kappa=kappa)
    r = (g - sup_slope) - TANGENT_MARGIN
    proposal = Proposal(
        "curvy", CurvyParams(epsilon=CURVY_EPSILON, r=r, horizon=prop_horizon)
    )
    return ExactProblem(
        sde=sde,
        threshold=threshold,
        gammas=gammas,
        proposal=proposal,
        max_proposals=max_proposals,
    )


def transform_neuron(
    params: NeuronParams,
    state: AdaptiveThresholdState | None = None,
    *,
    start_voltage: float | None = None,
    prop_horizon: float = 7.0,
) -> tuple[UnitDiffusionSDE, Threshold, GammaPair]:
    """Unit-diffusion view of one inter-spike interval.

    Time is measured from the interval start (the last spike, or 0 for the
    first interval); ``state=None`` means the first interval, which starts at
    voltage ``v0`` under the initial threshold ``theta0 + 1``.  Returns the
    transformed SDE (``x0 = -(1/sigma) ln`` of the start voltage), the
    below-start threshold ``beta(t) = -(1/sigma) ln theta(t)`` and the rate
    pair with its thinning bound and stage reference drift attached.
    """
    first = state is None
    if state is None:
        state = initial_state(params)
    if start_voltage is None:
        start_voltage = params.v0 if first else params.v_reset
    if not start_voltage > 0.0:
        raise DomainError(f"start voltage must be positive, got {start_voltage}")
    problem = _stage_problem(
        params,
        state.theta_plus,
        x_start=-math.log(start_voltage) / params.sigma,
        offset=0.0,
        time_shift=0.0,
        prop_horizon=prop_horizon,
        max_proposals=10**6,
    )
    return problem.sde, problem.threshold, problem.gammas


def _draw_interval(
    params: NeuronParams,
    theta_plus: float,
    start_voltage: float,
    remaining: float,
    rng: np.random.Generator,
    max_proposals: int,
) -> tuple[float | None, list[FptDraw]]:
    """One inter-spike passage time (interval-local), or None past the horizon,
    with the stage draws it took.

    The passage is chained through intermediate thresholds placed uniformly
    in ``u = exp(-sigma*x)`` between the start voltage and the peak threshold
    level, keeping every stage's acceptance cost of order one.
    """
    sigma = params.sigma
    _, d = params.drift_coefficients()
    v = start_voltage
    if not theta_plus > v:
        raise DomainError(
            f"start voltage {v} is not strictly below the threshold level {theta_plus}"
        )
    span = theta_plus - v
    k = max(1, math.ceil(abs(d) * span / sigma - 1e-12))

    s = 0.0
    x_cur = -math.log(v) / sigma
    draws: list[FptDraw] = []
    for i in range(1, k + 1):
        if s >= remaining:
            return None, draws
        u_i = v + span * (i / k)
        offset = math.log(theta_plus / u_i) / sigma
        stage_horizon = (remaining - s) + PROPOSAL_SLACK
        problem = _stage_problem(
            params,
            theta_plus,
            x_start=x_cur,
            offset=offset,
            time_shift=s,
            prop_horizon=stage_horizon,
            max_proposals=max_proposals,
        )
        draw = sample_exact_below(problem, rng)
        draws.append(draw)
        if draw.time >= stage_horizon - 1e-12:
            return None, draws
        x_cur = problem.threshold.beta(draw.time)
        s += draw.time
    return (s if s < remaining else None), draws


def simulate_spike_train(
    params: NeuronParams,
    horizon: float,
    rng: np.random.Generator,
    trial_seed: int = 0,
    *,
    max_spikes: int = 10_000,
    max_proposals: int = 10**6,
) -> SpikeTrain:
    """Chain exact interval draws into the spike train on ``[0, horizon)``."""
    if not horizon > 0.0:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    state = initial_state(params)
    voltage = params.v0
    times: list[float] = []
    stages = proposals = clock_events = 0
    while True:
        if len(times) >= max_spikes:
            raise NonTerminationError(
                f"more than {max_spikes} spikes before t={horizon}; "
                "parameterization looks runaway"
            )
        remaining = horizon - state.last_spike
        if remaining <= 0.0:
            break
        t_local, draws = _draw_interval(
            params, state.theta_plus, voltage, remaining, rng, max_proposals
        )
        stages += len(draws)
        proposals += sum(d.proposals for d in draws)
        clock_events += sum(d.clock_events for d in draws)
        if t_local is None:
            break
        t_spike = state.last_spike + t_local
        if t_spike >= horizon:
            break
        times.append(t_spike)
        state = apply_spike(state, params, t_spike)
        voltage = params.v_reset
    return SpikeTrain(
        times=tuple(times),
        horizon=horizon,
        params=params,
        trial_seed=trial_seed,
        stages=stages,
        proposals=proposals,
        clock_events=clock_events,
    )


def simulate_trials(
    params: NeuronParams,
    horizon: float,
    n_trials: int,
    master_seed: int,
    *,
    key_prefix: Sequence[int] = (),
) -> list[SpikeTrain]:
    """Independent spike trains on per-trial substreams.

    Trial ``i`` is ``simulate_spike_train`` on ``substream(master_seed,
    *key_prefix, i)`` with ``trial_seed=derive_seed(master_seed, *key_prefix, i)``.
    """

    def draw(i: int, rng: np.random.Generator) -> SpikeTrain:
        return simulate_spike_train(
            params, horizon, rng, trial_seed=derive_seed(master_seed, *key_prefix, i)
        )

    return sample_many_indexed(draw, n_trials, master_seed, key_prefix=key_prefix)


def inter_spike_intervals(train: SpikeTrain) -> np.ndarray:
    """Intervals between consecutive events, anchored at the trial start."""
    if not train.times:
        return np.empty(0)
    return np.diff(np.concatenate([[0.0], np.asarray(train.times)]))


def pooled_isi_cv(trains: Sequence[SpikeTrain]) -> float:
    """Coefficient of variation of intervals pooled across trials."""
    pooled = np.concatenate([inter_spike_intervals(t) for t in trains]) if trains else np.empty(0)
    if pooled.size < 2:
        return float("nan")
    mean = float(pooled.mean())
    if mean == 0.0:
        return float("nan")
    return float(pooled.std(ddof=1)) / mean


def summarize_trains(trains: Sequence[SpikeTrain]) -> dict:
    """Spike-count and dispersion summary of a batch of trials, with the
    stage, proposal and clock-event totals of their exact draws."""
    counts = np.array([t.count for t in trains], dtype=float)
    return {
        "n_trials": len(trains),
        "horizon": trains[0].horizon if trains else None,
        "mean_count": float(counts.mean()) if counts.size else 0.0,
        "std_count": float(counts.std(ddof=1)) if counts.size > 1 else 0.0,
        "total_spikes": int(counts.sum()) if counts.size else 0,
        "cv_isi": pooled_isi_cv(trains),
        "stages": sum(t.stages for t in trains),
        "proposals": sum(t.proposals for t in trains),
        "clock_events": sum(t.clock_events for t in trains),
    }


def write_spike_trains_csv(trains: Sequence[SpikeTrain], path) -> None:
    """Serialize trains as rows of (trial, spike_index, time)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", "spike_index", "time"])
        for trial, train in enumerate(trains):
            for j, t in enumerate(train.times):
                writer.writerow([trial, j, repr(t)])
