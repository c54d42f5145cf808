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
  interval of admissible drifts.  Within an interval ``theta`` is monotone
  in time, and so are ``beta'``, ``u(t)`` and ``alpha(beta(t))``.  Every
  stage of an interval ends at the same time, the remaining horizon plus
  ``PROPOSAL_SLACK``, so one grid of equal pieces over the interval serves
  them all.  In one numpy pass per interval the builder bounds each term on
  each piece by its values at the piece ends, for every stage at once, and
  keeps suffix tables over the pieces of the worst constraint margin and of
  the intersected root intervals.  A stage that starts at time ``s`` reads
  those tables at the piece holding ``s``: the pieces from there on cover
  its whole time window, so its bounds hold at every stage time, not only
  at sampled ones (a rigorous bound, not a grid estimate).  It picks the
  smallest admissible ``g``, which minimizes the expected number of
  proposals (their cost exponent is increasing in ``g``), and bounds the
  time rate over the same pieces, and so ``kappa``.
* **Stage splitting.**  After several spikes the threshold sits far from the
  reset point in ``u = exp(-sigma*x)`` units, and single-shot acceptance
  degrades exponentially in that distance.  The interval passage is therefore
  chained through intermediate thresholds ``beta(t) + offset_i`` placed
  uniformly in ``u``, one exact draw per stage (the passage hits the ordered
  thresholds in sequence, so the summed stage times follow the interval law).
  A stage spans ``_STAGE_WIDTH = 2`` units of ``sigma/|d|`` in ``u``, which
  balances its set-up against its proposals (about five per stage).  The
  stages of a train share one set of block streams, so none builds its own.

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
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bm_fpt import CURVY_EPSILON, CurvyParams, FptDraw
from .errors import (
    AssumptionViolation,
    DomainError,
    NonTerminationError,
    ParameterError,
    SequencingError,
)
from .exact import ExactProblem, draw_streams, sample_exact_below
from .model import KAPPA_FLOOR, GammaPair, Threshold, UnitDiffusionSDE, _fill
from .rng import sample_many

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

#: Extra proposal time past the remaining simulation horizon.
PROPOSAL_SLACK = 5.0
#: Margin of a stage's declared ``sup_slope`` over its exact one, so that the curvy lines,
#: of the frame's ``inf_slope`` ``g - sup_slope``, run that much below the steepest slope.
TANGENT_MARGIN = 0.1
#: Number of equal pieces of interval time the rate bounds are taken over.
_RATE_PIECES = 64
#: Piece ends as fractions of the grid span.
_PIECE_ENDS = np.arange(_RATE_PIECES + 1) / _RATE_PIECES
#: Indices of the first and of the last end of each piece, in two rows.
_PIECE_END_INDEX = np.stack((np.arange(_RATE_PIECES), np.arange(1, _RATE_PIECES + 1)))
#: Stage width in ``u = exp(-sigma*x)``, in units of ``sigma/|d|``.  A stage's cost exponent
#: ``x`` (about ``e^x`` proposals) grows with its width, so the cost per width ``(C0 + C1*e^x)/x``
#: (set-up ``C0``, ``C1`` per proposal) is least at ``e^x (x - 1) = C0/C1``, about 4.6: ``x``
#: about 1.8, twice the ``x`` of width 1, and flat (within 5% for ``x`` in [1.4, 2.2]).
_STAGE_WIDTH = 2.0
#: Values per block of the random streams a spike train shares among its stage draws.
_TRAIN_BLOCK = 64
#: Proposal horizon of the one stage :func:`transform_neuron` builds.
_TRANSFORM_HORIZON = 7.0
#: Spike count at which :func:`simulate_spike_train` calls a train runaway.
_MAX_SPIKES = 10_000


@dataclass(frozen=True)
class NeuronParams:
    """Membrane and threshold parameters (defaults: the reference experiment).

    ``tau_m`` is the (possibly negative) integration time constant, ``V_r``
    the resting potential, ``sigma`` the noise amplitude, ``v0`` the initial
    voltage, ``I`` the input current, ``theta0`` the threshold baseline,
    ``tau1`` the threshold decay constant, ``delta`` the adaptation strength
    and ``v_reset`` the post-spike voltage (defaults to ``V_r``).  Every
    field is finite except ``tau1``, which may be ``inf`` (no decay).  ``delta >= 0``, and
    ``v_reset`` is below the infimum of the post-spike threshold levels,
    ``theta0 + delta/tau1`` (``theta0 + 1`` when ``tau1 = inf``).
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
        for name in ("I", "V_r", "sigma", "theta0", "delta", "v_reset"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
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
        if not self.theta0 > 0.0:
            raise ParameterError(f"theta0 must be positive, got {self.theta0}")
        if not self.theta0 + 1.0 > self.v0:
            raise ParameterError(
                f"initial threshold theta0 + 1 = {self.theta0 + 1.0} must exceed v0 = {self.v0}"
            )
        if not self.delta >= 0.0:
            raise ParameterError(f"delta must be >= 0, got {self.delta}")
        floor = self.theta0 + (1.0 if self.tau1 == math.inf else self.delta / self.tau1)
        if not self.v_reset < floor:
            raise ParameterError(f"v_reset = {self.v_reset} must be below every post-spike "
                                 f"threshold level, whose infimum is {floor}")

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


def _exp(x):
    """``exp`` of an ndarray elementwise, and of anything else with :mod:`math`."""
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def _suffix(ufunc, table):
    """``ufunc.accumulate`` along each row of ``table``, from its last column back."""
    return ufunc.accumulate(table[:, ::-1], axis=1)[:, ::-1]


def _q(c: float, d: float, sigma: float, u):
    """``q(u) = alpha' + alpha^2`` of the drift, written in ``u = exp(-sigma*x)``."""
    return d * d * u * u + (2.0 * c * d - sigma * d) * u + c * c


class _StageBounds:
    """Rate bounds of the passage stages of one interval, built in one pass.

    Stage ``i`` has the threshold ``beta(t) + offsets[i]`` in interval time
    ``t``.  One grid of ``_RATE_PIECES`` equal pieces covers ``[t0, t0 +
    span]``, and every stage runs inside it.  ``theta`` is monotone in time,
    so on each piece it lies between its end values, and so do ``beta'``
    (increasing in ``theta`` for ``theta0 > 0``), ``u = theta*scale_i`` and
    ``alpha = c + d*u``.  From these boxes the constructor takes, for every
    stage and piece at once, the worst margin of the drift constraint and the
    interval of admissible drifts, and folds them into suffix tables over the
    pieces.  A stage that starts at ``s`` reads them at the piece ``j0`` that
    holds ``s``: the pieces ``j >= j0`` cover its whole time window, so its
    bounds hold at every stage time.
    """

    def __init__(
        self,
        params: NeuronParams,
        theta_plus: float,
        offsets: Sequence[float],
        t0: float,
        span: float,
    ) -> None:
        sigma, tau1, th0 = params.sigma, params.tau1, params.theta0
        thp = theta_plus
        if min(th0, thp) <= 0.0:
            raise DomainError(
                f"threshold levels must stay positive for the log transform, "
                f"got theta0={th0}, theta_plus={thp}"
            )
        c, d = params.drift_coefficients()
        self.params = params
        self.theta_plus = thp
        self.c, self.d = c, d
        self.offsets = offsets
        # slope range of beta (monotone in theta; same for every offset), plus TANGENT_MARGIN
        slope_at_peak = (thp - th0) / (tau1 * sigma * thp)
        self.inf_slope = min(0.0, slope_at_peak)
        self.sup_slope = max(0.0, slope_at_peak) + TANGENT_MARGIN

        # rows are stages; along a row, piece ends or pieces in time order.
        # Tables with an axis for the two ends of a piece keep it in front of
        # the piece axis, so numpy's inner loops run along the pieces.
        ends = t0 + span * _PIECE_ENDS
        theta = th0 + (thp - th0) * np.exp(-ends / tau1)
        scales = np.exp(-sigma * np.array(offsets))[:, None]
        bp_ends = (theta - th0) / (tau1 * sigma * theta)
        alpha_ends = c + d * (scales * theta)
        # beta' at the first and at the last end of each piece
        bp_box = bp_ends[_PIECE_END_INDEX]
        # corner products alpha*beta' of each piece box, for beta' at either
        # end: the time rate (g - alpha)*beta' peaks at g*B - min(alpha*B)
        ab_first = alpha_ends[:, None, :-1] * bp_box
        ab_last = alpha_ends[:, None, 1:] * bp_box
        ab_min = np.minimum(ab_first, ab_last)
        ab_max = np.maximum(ab_first, ab_last)
        ab_max = np.maximum(ab_max[:, 0], ab_max[:, 1])
        # infimum of q over the state range (0, u(t)]: q is convex, with its
        # limit c^2 at u -> 0+, so the infimum sits at the vertex when
        # reachable; it does not increase with u(t), so a piece's value at its
        # largest u bounds it from below
        u_vertex = (sigma - 2.0 * c) / (2.0 * d) if d != 0.0 else -1.0
        if u_vertex > 0.0:
            u_hi = scales * np.maximum(theta[:-1], theta[1:])
            q_low = _q(c, d, sigma, np.minimum(u_hi, u_vertex))
        else:
            q_low = c * c

        # admissible reference drifts solve, for every stage time,
        #   (g - alpha)*beta' + (inf q - g^2)/2 >= slack.
        # On a piece the left side is at least g*B - g^2/2 + q_low/2 - ab_max
        # for B = beta' at either end (it is linear in beta'), a concave
        # quadratic in g with discriminant disc; the intersection of the root
        # intervals over a stage's pieces is admissible at every stage time.
        slack = 1e-12
        disc = bp_box * bp_box + ((q_low - 2.0 * slack) - 2.0 * ab_max)[:, None]
        root = np.sqrt(np.maximum(disc, 0.0))
        lo = bp_box - root
        hi = bp_box + root
        self.margin = np.minimum(disc[:, 0], disc[:, 1])
        self.worst = _suffix(np.minimum, self.margin)
        self.g_lo = _suffix(np.maximum, np.maximum(lo[:, 0], lo[:, 1]))
        self.g_hi = _suffix(np.minimum, np.minimum(hi[:, 0], hi[:, 1]))
        # the time-rate bound of a stage reads the pieces from j0 on
        self.bp_box = bp_box
        self.ab_min = ab_min
        # the bound for stages that start in the first piece
        self.rate_first = np.maximum.reduce(self.g_lo[:, :1, None] * bp_box - ab_min,
                                            axis=(1, 2)).tolist()
        self.ends = ends.tolist()
        self.theta = theta.tolist()
        self.scales = scales[:, 0].tolist()

        def alpha(x):
            return c + d * _exp(-sigma * x)

        def alpha_prime(x):
            return -sigma * d * _exp(-sigma * x)

        def A(x):
            return c * x - (d / sigma) * _exp(-sigma * x)

        self.sde_parts = (alpha, alpha_prime, A)

    def problem(
        self, i: int, s: float, *, x_start: float, horizon: float, max_proposals: int
    ) -> ExactProblem:
        """Exact problem of stage ``i``, started at interval time ``s`` in
        state ``x_start``, with proposal horizon ``horizon``.

        The stage picks the smallest admissible reference drift ``g`` (the
        cost exponent of its proposals increases with ``g``), bounds the space
        rate by its exact quadratic-in-``u`` form and the time rate piece by
        piece, and attaches the curvy proposal.  The proposal frame is the
        threshold's :meth:`~fptsim.model.Threshold.proposal_frame`.
        """
        params = self.params
        sigma, tau1, th0 = params.sigma, params.tau1, params.theta0
        c, d = self.c, self.d
        thp = self.theta_plus
        offset = self.offsets[i]
        scale = self.scales[i]
        j0 = min(bisect_right(self.ends, s), _RATE_PIECES) - 1
        worst = self.worst.item(i, j0)
        if worst < 0.0:
            j = j0 + int(np.argmax(self.margin[i, j0:] < 0.0))
            raise AssumptionViolation(
                "no constant reference drift keeps the combined rate non-negative "
                f"over the stage window [{s}, {s + horizon}] (worst margin {worst}, "
                f"first negative on the piece [{self.ends[j]}, {self.ends[j + 1]}])"
            )
        g = self.g_lo.item(i, j0)
        g_hi = self.g_hi.item(i, j0)
        if g > g_hi:
            raise AssumptionViolation(
                "no constant reference drift keeps the combined rate non-negative "
                f"at all times of the stage window [{s}, {s + horizon}] "
                f"(need g in [{g}, {g_hi}])"
            )
        # theta is monotone over the window, so u peaks at one of its ends
        u_cap = max(self.theta[j0], self.theta[-1]) * scale
        u_limit = u_cap * (1.0 + 1e-9)
        gg = g * g
        dth = thp - th0

        def beta(w: float) -> float:
            return -math.log(th0 + dth * math.exp(-(s + w) / tau1)) / sigma + offset

        def beta_prime(w: float) -> float:
            theta = th0 + dth * math.exp(-(s + w) / tau1)
            return (theta - th0) / (tau1 * sigma * theta)

        # the rates of make_gamma_pair in closed form: alpha(beta(w)) is
        # c + d*u with u = theta*scale
        def gamma1(w: float) -> float:
            theta = th0 + dth * math.exp(-(s + w) / tau1)
            return -(c + d * theta * scale - g) * (theta - th0) / (tau1 * sigma * theta)

        def gamma2(x: float) -> float:
            u = math.exp(-sigma * x)
            # domination bound: reconstructed states never leave the
            # threshold's far side, so u must stay within the stage's range
            if u > u_limit:
                raise AssumptionViolation(
                    f"state x={x} outside the stage domain (exp(-sigma*x) > {u_cap})"
                )
            a = c + d * u
            return 0.5 * (-sigma * d * u + a * a - gg)

        # clock rate: positive-part suprema of each rate bound their sum; the
        # space rate is an exact endpoint value of a convex quadratic, the
        # time rate (g - alpha)*beta' is bounded piece by piece
        sup2 = max(0.0, 0.5 * (max(c * c, _q(c, d, sigma, u_cap)) - gg))
        sup1 = max(0.0, self.rate_first[i] if j0 == 0 else float(np.maximum.reduce(
            g * self.bp_box[:, j0:] - self.ab_min[i, :, j0:], axis=None)))
        # The part fills skip only the part constructors' checks: kappa is
        # at least KAPPA_FLOOR, epsilon is a constant and the horizon is
        # positive and finite (simulate_spike_train checks its horizon once).
        # The curvy lines take the frame's inf_slope, g - sup_slope.
        alpha, alpha_prime, A = self.sde_parts
        return ExactProblem(
            _fill(UnitDiffusionSDE, {"alpha": alpha, "alpha_prime": alpha_prime, "A": A,
                                     "x0": x_start}),
            _fill(Threshold, {"beta": beta, "beta_prime": beta_prime,
                              "inf_slope": self.inf_slope, "sup_slope": self.sup_slope,
                              "linear": None}),
            _fill(GammaPair, {"gamma1": gamma1, "gamma2": gamma2,
                              "kappa": max(sup1 + sup2, KAPPA_FLOOR), "reference_drift": g,
                              "space_kappa": None}),
            _fill(CurvyParams, {"epsilon": CURVY_EPSILON, "horizon": horizon}),
            max_proposals,
        )


def transform_neuron(
    params: NeuronParams,
    state: AdaptiveThresholdState | None = None,
    *,
    start_voltage: float | None = None,
) -> tuple[UnitDiffusionSDE, Threshold, GammaPair]:
    """Unit-diffusion view of one inter-spike interval.

    Time is measured from the interval start (the last spike, or 0 for the
    first interval); ``state=None`` means the first interval, which starts at
    voltage ``v0`` under the initial threshold ``theta0 + 1``.  Returns the
    transformed SDE (``x0 = -(1/sigma) ln`` of the start voltage), the
    below-start threshold ``beta(t) = -(1/sigma) ln theta(t)`` and the rate
    pair with its thinning bound and stage reference drift attached: those
    of the one stage of :class:`_StageBounds` over ``[0, _TRANSFORM_HORIZON]``.
    A start voltage not below the threshold level is a :class:`DomainError`.
    """
    first = state is None
    if state is None:
        state = initial_state(params)
    if start_voltage is None:
        start_voltage = params.v0 if first else params.v_reset
    if not start_voltage > 0.0:
        raise DomainError(f"start voltage must be positive, got {start_voltage}")
    _check_start_below(start_voltage, state.theta_plus)
    bounds = _StageBounds(params, state.theta_plus, [0.0], 0.0, _TRANSFORM_HORIZON)
    problem = bounds.problem(0, 0.0, x_start=-math.log(start_voltage) / params.sigma,
                             horizon=_TRANSFORM_HORIZON, max_proposals=10**6)
    return problem.sde, problem.threshold, problem.gammas


def _check_start_below(voltage: float, theta_plus: float) -> None:
    """Refuse a start voltage not below the threshold level ``theta_plus``:
    the stage rate bounds hold for a threshold passed from below in voltage."""
    if not theta_plus > voltage:
        raise DomainError(
            f"start voltage {voltage} is not strictly below the threshold level {theta_plus}"
        )


def _draw_interval(
    params: NeuronParams,
    theta_plus: float,
    v: float,
    remaining: float,
    rng: np.random.Generator,
    max_proposals: int,
    streams: tuple | None = None,
) -> tuple[float | None, list[FptDraw]]:
    """One inter-spike passage time (interval-local), or None past the horizon,
    with the stage draws it took.

    The passage is chained through intermediate thresholds placed uniformly
    in ``u = exp(-sigma*x)`` between the start voltage ``v`` and the peak
    threshold level, at most ``_STAGE_WIDTH * sigma/|d|`` apart, so that each
    stage's proposals cost about as much as its set-up (see ``_STAGE_WIDTH``).
    The stages draw from ``streams``, by default new ones per stage on ``rng``.
    """
    sigma = params.sigma
    _, d = params.drift_coefficients()
    _check_start_below(v, theta_plus)
    span = theta_plus - v
    k = max(1, math.ceil(abs(d) * span / (_STAGE_WIDTH * sigma) - 1e-12))
    offsets = [math.log(theta_plus / (v + span * (i / k))) / sigma for i in range(1, k + 1)]
    # every stage ends at the same interval time, so one piece grid over
    # [0, t_end] serves them all
    t_end = remaining + PROPOSAL_SLACK
    bounds = _StageBounds(params, theta_plus, offsets, 0.0, t_end)

    s = 0.0
    x_cur = -math.log(v) / sigma
    draws: list[FptDraw] = []
    for i in range(k):
        if s >= remaining:
            return None, draws
        problem = bounds.problem(
            i, s, x_start=x_cur, horizon=t_end - s, max_proposals=max_proposals
        )
        draw = sample_exact_below(problem, rng, streams=streams)
        draws.append(draw)
        x_cur = problem.threshold.beta(draw.time)
        s += draw.time
    return (s if s < remaining else None), draws


def simulate_spike_train(
    params: NeuronParams,
    horizon: float,
    rng: np.random.Generator,
    *,
    max_proposals: int = 10**6,
) -> SpikeTrain:
    """Chain exact interval draws into the spike train on ``[0, horizon)``.

    ``horizon`` and ``max_proposals`` are checked here, before any stage is
    built: the stages' proposal parameters are built without re-checking
    the horizon.  Its stage draws share one set of streams on ``rng``.
    """
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ParameterError(f"horizon must be positive and finite, got {horizon}")
    if max_proposals < 1:
        raise ParameterError(f"max_proposals must be >= 1, got {max_proposals}")
    state = initial_state(params)
    voltage = params.v0
    streams = draw_streams(rng, _TRAIN_BLOCK)
    times: list[float] = []
    stages = proposals = clock_events = 0
    while True:
        if len(times) >= _MAX_SPIKES:
            raise NonTerminationError(
                f"more than {_MAX_SPIKES} spikes before t={horizon}; "
                "parameterization looks runaway"
            )
        remaining = horizon - state.last_spike
        if remaining <= 0.0:
            break
        t_local, draws = _draw_interval(
            params, state.theta_plus, voltage, remaining, rng, max_proposals, streams
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
        stages=stages,
        proposals=proposals,
        clock_events=clock_events,
    )


def simulate_trials(
    params: NeuronParams,
    horizon: float,
    n_trials: int,
    master_seed: int,
) -> list[SpikeTrain]:
    """Independent spike trains on per-trial substreams.

    Trial ``i`` is ``simulate_spike_train`` on ``substream(master_seed, i)``.
    """
    return sample_many(
        lambda rng: simulate_spike_train(params, horizon, rng), n_trials, master_seed
    )


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
