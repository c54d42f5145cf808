"""Exact first-passage-time sampling by rejection with Poisson thinning.

Target: ``tau = inf{t : X_t = beta(t)}`` for ``dX = alpha(X) dt + dB`` started
at ``x0`` on the far side of the threshold.  A change of measure to a
reference Brownian motion with constant drift ``g`` (``g = 0`` by default)
turns the density of ``tau`` into ``eta(t) * f_W(t) / N_c`` where ``f_W`` is
the first-passage density of the reference motion to ``beta``,

    eta(t) = E[ exp( -int_0^t gamma1(s) + gamma2(X_s) ds ) | tau = t ],

``gamma1``/``gamma2`` are the rates built by :func:`fptsim.model.make_gamma_pair`
and ``N_c = exp(A(x0) - A(beta(0)) - g*(x0 - beta(0)))``.  The sampler draws a
proposal ``tau_W`` from the reference first-passage law and accepts it when a
rate-``kappa`` exponential clock places no event below the graph of the
integrand.  Proposals are passage times of standard Brownian motion from 0
to the threshold's proposal frame (:meth:`fptsim.model.Threshold.proposal_frame`:
start shifted to 0, drift ``g`` removed, below-start problems reflected),
which :class:`ExactProblem` builds once per problem.  At a clock event ``E``
in ``[0, tau_W]`` the path state enters as

    x_rec = beta(E) -/+ || (E/tau_W) * delta * e1 + l_E ||,

where ``delta = |beta(0) - x0|`` is the starting gap (the frame at 0), ``l``
is a pinned 3-D Brownian bridge updated event-to-event by :func:`bridge_step`,
and the sign places the reconstruction on the starting side of the
threshold.  The distance ``|| (E/tau_W) * delta * e1 + l_E ||`` is the Bessel(3) bridge from
0 to ``delta`` evaluated at ``E``, i.e. the path-to-threshold gap of the
*time-reversed* proposal path, which runs from 0 at the hit back to ``delta``
at time 0.  Pairing the forward-time rate ``gamma1(E)`` with the
reversed-path state is valid because acceptance depends on the path only
through ``int_0^tau gamma1(s) + gamma2(X_s) ds``, which is invariant under
reversing the time argument of either summand.  Acceptance happens with
probability ``eta(tau_W)``, hence accepted proposals follow the target law
and the expected number of proposals per acceptance equals ``1 / N_c`` (see
:func:`expected_proposals`).

The reconstruction is exact for constant and linear thresholds, where the
conditioned gap of the reference motion is exactly a Bessel(3) bridge.  For
curvy thresholds it is not: the gap of a path conditioned to first hit a
curve at ``tau_W`` is a Bessel(3) bridge reweighted by
``exp(-int_0^tau G_s beta''(s) ds)``, so accepted times carry a bias that
does not shrink with epsilon (Example 2 at epsilon = 2^-20 against improved
Euler: two-sample KS p = 3.3e-6).  The fix, a reconstruction that follows
the line iterates of the proposal, is ROADMAP item 1.

``_kernel_of`` alone builds the proposal frame, checks a problem's parts and
returns its kernel form (``_Kernel``: plain floats and callables, with the
start gap ``delta = phi(0)``), which the sampler runs on without rebuilding
anything per draw.  :class:`ExactProblem` and the neuron stages (through
``_trusted_problem``) store it; :func:`sample_exact_split` builds each stage
from the problem's kernel and the stage's own line.

Each call draws its randomness in blocks from its own generator: the
exponential clock gaps, the bridge normals and the event marks come from
per-call streams of 16 values (:func:`fptsim.rng.block_stream`), and so do
the Wald draws of linear proposals.  Curved proposals take the normals and
uniforms of their line draws from the draw's own normal and uniform streams,
so a line draw makes no numpy call.  Nothing is carried from one call to the
next, so a draw is a function of the generator it is handed.

For distant linear thresholds, :func:`sample_exact_split` chains ``k``
intermediate sub-problems (strong Markov property), turning a cost that is
exponential in the gap into ``k`` times a bounded per-stage cost; see
:func:`iteration_bound_linear` and :func:`choose_split_count`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .bm_fpt import CurvyParams, FptDraw, _draw, _linear_time, sample_fpt_curvy
from .errors import ConfigurationError, NonTerminationError, ParameterError
from .model import (
    GammaPair,
    Orientation,
    Threshold,
    UnitDiffusionSDE,
    _fill,
    _guard_rate,
    _rate_ceiling,
)
from .rng import block_stream, sample_many

__all__ = [
    "BridgeState",
    "Proposal",
    "ExactProblem",
    "bridge_step",
    "sample_exact",
    "sample_exact_below",
    "sample_exact_split",
    "sample_batch",
    "iteration_bound_linear",
    "choose_split_count",
    "expected_proposals",
    "run_thinning_trial",
    "default_proposal",
]

#: Values per block of the per-call random streams of the sampler.
_EVENT_BLOCK = 16


@dataclass(frozen=True)
class BridgeState:
    """State of the event-to-event pinned-bridge recursion.

    ``l`` is the pinned three-dimensional Brownian bridge evaluated at the
    current event time ``E1``; ``E0`` is the previous event time.
    """

    l: np.ndarray
    E0: float
    E1: float

    def __post_init__(self) -> None:
        l = np.asarray(self.l, dtype=float)
        if l.shape != (3,):
            raise ParameterError(f"l must be a 3-vector, got shape {l.shape}")
        object.__setattr__(self, "l", l)
        if not 0.0 <= self.E0 <= self.E1:
            raise ParameterError(f"need 0 <= E0 <= E1, got E0={self.E0}, E1={self.E1}")


def _bridge_coeffs(tau_w: float, e0: float, e1: float) -> tuple[float, float]:
    """Conditional-update coefficients of the pinned bridge at ``e1``.

    Given the bridge value at ``e0`` and the pin at ``tau_w``, the value at
    ``e1`` is ``c1 * l + c2 * G`` with a standard normal 3-vector ``G``.
    Needs ``e0 <= e1 <= tau_w`` and ``e0 < tau_w``, which :func:`bridge_step`
    checks for outside callers.
    """
    denom = tau_w - e0
    c1 = (tau_w - e1) / denom
    c2 = math.sqrt((tau_w - e1) * (e1 - e0) / denom)
    return c1, c2


def bridge_step(state: BridgeState, tau_w: float, G: np.ndarray) -> BridgeState:
    """Advance the pinned bridge from ``E0`` to ``E1`` using innovation ``G``."""
    G = np.asarray(G, dtype=float)
    if G.shape != (3,):
        raise ParameterError(f"G must be a 3-vector, got shape {G.shape}")
    if not (state.E1 <= tau_w and state.E0 < tau_w):
        raise ParameterError(
            f"need E0 <= E1 <= tau_w and E0 < tau_w, got {state.E0}, {state.E1}, {tau_w}"
        )
    c1, c2 = _bridge_coeffs(tau_w, state.E0, state.E1)
    return replace(state, l=c1 * state.l + c2 * G)


@dataclass(frozen=True)
class Proposal:
    """Proposal-sampler selection: ``linear`` or ``curvy``.

    ``linear`` draws the reference passage time to a line (flat lines
    included, with or without a reference drift) in closed form; ``curvy``
    runs the line iteration of :func:`fptsim.bm_fpt.sample_fpt_curvy`.
    """

    kind: str
    curvy: CurvyParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "curvy"):
            raise ConfigurationError(f"unknown proposal kind {self.kind!r}")
        if self.kind == "curvy" and self.curvy is None:
            raise ConfigurationError("curvy proposals need CurvyParams")


def default_proposal(
    threshold: Threshold, curvy: CurvyParams | None = None
) -> Proposal:
    """Pick the natural proposal for a threshold shape."""
    if threshold.linear is not None:
        return Proposal("linear")
    return Proposal("curvy", curvy)


@dataclass(frozen=True)
class ExactProblem:
    """Everything the exact sampler needs for one threshold problem.

    ``gammas`` must carry a ``kappa`` bound and must have been built from
    ``(sde, threshold)`` with the same ``reference_drift`` (or be certified
    equivalent by the caller); runtime guards abort on out-of-range rates
    rather than silently biasing output.  The constructor checks the parts
    and builds the plain-value form the sampler runs on, once for every
    draw, in :func:`_kernel_of`; the proposal frame of a curved threshold
    is ``_kernel.curvy[0]``.  Only :func:`sample_batch` refuses a curvy start
    within ``epsilon``: grids ignore it, and a chain stage passes at once.
    """

    sde: UnitDiffusionSDE
    threshold: Threshold
    gammas: GammaPair
    proposal: Proposal = field(default_factory=lambda: Proposal("linear"))
    max_proposals: int = 10**6
    _kernel: _Kernel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_kernel", _kernel_of(self.sde, self.threshold, self.gammas,
                                                       self.proposal, self.max_proposals))


class _Kernel(NamedTuple):
    """An exact problem as :func:`_sample_oriented` runs it: plain values only.

    ``beta`` and ``sign`` are the threshold and its orientation sign, the
    rate is ``gamma1(t) - shift1 + gamma2(x) - shift2`` under the clock rate
    ``kappa`` and its guard ``ceiling``, and ``delta`` is the start gap
    ``phi(0)`` of the proposal frame ``phi``.  Exactly one of ``line`` and
    ``curvy`` is set.  ``line = (intercept, wald, hit)`` draws the passage of
    standard Brownian motion to the frame line: ``wald`` is the ``(mean,
    shape)`` of a sloped line's inverse Gaussian time (None for a flat line)
    and ``hit`` the hit probability of a rising line (None when every path
    hits).  ``curvy = (phi, params)`` runs :func:`sample_fpt_curvy`.
    """

    beta: Callable[[float], float]
    sign: float
    gamma1: Callable[[float], float]
    gamma2: Callable[[float], float]
    shift1: float
    shift2: float
    kappa: float
    ceiling: float
    delta: float
    max_proposals: int
    line: tuple | None
    curvy: tuple | None


def _line_part(slope: float, intercept: float) -> tuple:
    """``_Kernel.line`` of the frame line ``slope * t + intercept``, ``intercept > 0``."""
    if not intercept > 0.0:
        raise ConfigurationError(f"translated proposal intercept {intercept} must be positive")
    if slope == 0.0:
        return intercept, None, None
    wald = (abs(intercept / slope), intercept * intercept)
    return intercept, wald, (None if slope < 0.0 else math.exp(-2.0 * slope * intercept))


def _kernel_of(sde: UnitDiffusionSDE, threshold: Threshold, gammas: GammaPair,
               proposal: Proposal, max_proposals: int) -> _Kernel:
    """The checked kernel of a problem's parts (see :class:`ExactProblem`).

    Checks in order: ``kappa`` is set, ``max_proposals >= 1``, the start gap
    ``phi(0) = sign * (beta(0) - x0)`` lies in ``(0, inf)`` (a gap outside
    it fails :meth:`Threshold.validate_start` or is refused as not finite),
    a linear proposal has a linear threshold, and the frame line's intercept
    is positive (:func:`_line_part`).
    """
    kappa = gammas.kappa
    if kappa is None:
        raise ConfigurationError("gammas.kappa must be set for sampling")
    if max_proposals < 1:
        raise ParameterError(f"max_proposals must be >= 1, got {max_proposals}")
    frame = threshold.proposal_frame(sde.x0, gammas.reference_drift)
    delta = frame.beta(0.0)
    if not 0.0 < delta < math.inf:
        threshold.validate_start(sde.x0)
        raise ParameterError(f"start gap {delta} is not a positive finite number: "
                             f"x0 = {sde.x0}, reference drift = {gammas.reference_drift}")
    linear = proposal.kind == "linear"
    if linear and threshold.linear is None:
        raise ConfigurationError("linear proposals require a linear threshold")
    return _Kernel(
        threshold.beta, threshold.orientation.sign, gammas.gamma1, gammas.gamma2,
        gammas.shift1, gammas.shift2, kappa, _rate_ceiling(kappa), delta, max_proposals,
        _line_part(*frame.linear) if linear else None,
        None if linear else (frame, proposal.curvy),
    )


def _trusted_problem(sde: UnitDiffusionSDE, threshold: Threshold, gammas: GammaPair,
                     proposal: Proposal, max_proposals: int) -> ExactProblem:
    """An :class:`ExactProblem` built without the frozen-dataclass constructor.

    It runs every check of :func:`_kernel_of`, as the constructor does.
    """
    kernel = _kernel_of(sde, threshold, gammas, proposal, max_proposals)
    return _fill(ExactProblem, {"sde": sde, "threshold": threshold, "gammas": gammas,
                                "proposal": proposal, "max_proposals": max_proposals,
                                "_kernel": kernel})


def expected_proposals(problem: ExactProblem) -> float:
    """Expected proposals per acceptance, ``exp(A_g(beta(0)) - A_g(x0))``.

    ``A_g(x) = A(x) - g*x`` is the drift antiderivative relative to the
    reference measure.  Valid when the target passage is almost surely finite
    and the rate pair is unshifted (``shift1 + shift2 = 0``).
    """
    g = problem.gammas.reference_drift
    A = problem.sde.A
    x0 = problem.sde.x0
    b0 = problem.threshold.beta(0.0)
    return math.exp((A(b0) - g * b0) - (A(x0) - g * x0))


def _sample_oriented(k: _Kernel, rng: np.random.Generator) -> FptDraw:
    """One exact draw of the problem ``k``.

    Proposals are reference passage times to the frame (``inf`` for
    non-hitting or horizon-censored ones, which count as rejections).  A
    line draws its flat passage from ``normal``, its rising-line hit test
    from ``uniform`` and its Wald times from their own block stream; a curve
    calls :func:`sample_fpt_curvy` on the ``normal`` and ``uniform`` streams
    and adds its line draws to the draw's ``line_draws``.
    """
    beta, sign, gamma1, gamma2, s1, s2, kappa, ceiling, delta, max_proposals, line, curvy = k
    normal = block_stream(rng.standard_normal, _EVENT_BLOCK)
    uniform = block_stream(rng.random, _EVENT_BLOCK)
    clock_gap = block_stream(partial(rng.exponential, 1.0 / kappa), _EVENT_BLOCK)
    if curvy is None:
        intercept, wald_params, hit = line
        if wald_params is not None:
            # the generator's transform can round to a small negative double,
            # so its times are clamped to 0
            wald = block_stream(partial(rng.wald, *wald_params), _EVENT_BLOCK)
    else:
        phi, params = curvy
        horizon = params.horizon
    line_draws = 0
    bridge_coeffs = _bridge_coeffs
    guard_rate = _guard_rate

    total_events = 0
    for attempt in range(1, max_proposals + 1):
        if curvy is not None:
            d = sample_fpt_curvy(phi, params, rng, normal=normal, uniform=uniform)
            line_draws += d.clock_events
            tau = d.time if d.time < horizon else math.inf
        elif wald_params is None:
            tau = _linear_time(0.0, intercept, normal, uniform)
        elif hit is None or uniform() < hit:
            tau = max(0.0, wald())
        else:
            continue
        if tau == math.inf:
            continue
        if tau <= 0.0:
            return _draw(0.0, attempt, total_events, line_draws)
        e0 = 0.0
        e1 = clock_gap()
        l1 = l2 = l3 = 0.0
        while e1 <= tau:
            c1, c2 = bridge_coeffs(tau, e0, e1)
            l1 = c1 * l1 + c2 * normal()
            l2 = c1 * l2 + c2 * normal()
            l3 = c1 * l3 + c2 * normal()
            total_events += 1
            # The bridge clock runs backwards along the path: its value at e1
            # is the path-to-threshold gap at forward time tau - e1, so the
            # threshold and the rates must be evaluated there.  Pairing them
            # with e1 instead only cancels for constant thresholds.
            t_fwd = tau - e1
            m = (e1 / tau) * delta + l1
            x_rec = beta(t_fwd) - sign * math.sqrt(m * m + l2 * l2 + l3 * l3)
            v = guard_rate(gamma1(t_fwd) - s1 + gamma2(x_rec) - s2, ceiling, t_fwd, x_rec)
            if kappa * uniform() <= v:
                break
            e0 = e1
            e1 += clock_gap()
        else:
            return _draw(tau, attempt, total_events, line_draws)
    raise NonTerminationError(
        f"no acceptance within {max_proposals} proposals; "
        "check kappa and the proposal horizon"
    )


def sample_exact(problem: ExactProblem, rng: np.random.Generator) -> FptDraw:
    """Draw one exact passage time for an above-start problem."""
    if problem.threshold.orientation is not Orientation.ABOVE_START:
        raise ConfigurationError("sample_exact handles above-start problems; "
                                 "use sample_exact_below")
    return _sample_oriented(problem._kernel, rng)


def sample_exact_below(problem: ExactProblem, rng: np.random.Generator) -> FptDraw:
    """Draw one exact passage time for a below-start problem."""
    if problem.threshold.orientation is not Orientation.BELOW_START:
        raise ConfigurationError("sample_exact_below handles below-start problems; "
                                 "use sample_exact")
    return _sample_oriented(problem._kernel, rng)


def sample_exact_split(
    problem: ExactProblem, k: int, rng: np.random.Generator
) -> FptDraw:
    """Exact passage time to a linear threshold via ``k`` chained stages.

    Stage ``i`` runs the exact sampler from the previous hit point to the
    parallel line through level ``x0 + (beta(0) - x0) * i / k``; by the strong
    Markov property the summed stage times follow the original passage law,
    and ``k = 1`` is the plain single-stage path.  Each stage is built in
    kernel form only: it keeps the problem kernel's ``gamma2``, shifts,
    bound, rate ceiling and proposal budget, and takes its own line, time
    rate ``gamma1`` and start gap, with the float expressions of
    ``linear_threshold``, ``make_gamma_pair`` and ``Threshold.proposal_frame``.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if problem.threshold.linear is None:
        raise ConfigurationError("space splitting requires a linear threshold")
    if problem.threshold.orientation is not Orientation.ABOVE_START:
        raise ConfigurationError("space splitting is implemented for above-start problems")
    a, b = problem.threshold.linear
    kernel = problem._kernel
    shared = kernel[3:8]  # gamma2, shift1, shift2, kappa, ceiling
    g = problem.gammas.reference_drift
    alpha = problem.sde.alpha
    x0 = problem.sde.x0
    gap = b - x0

    t_acc = 0.0
    x_cur = x0
    total_proposals = 0
    total_events = 0
    for i in range(1, k + 1):
        level = x0 + gap * (i / k)
        intercept = a * t_acc + level
        delta = intercept - x_cur
        stage = _Kernel(
            lambda t, b=intercept: a * t + b,
            1.0,
            lambda t, b=intercept: -(alpha(a * t + b) - g) * a,
            *shared, delta, kernel.max_proposals, _line_part(a - g, delta), None,
        )
        d = _sample_oriented(stage, rng)
        x_cur = a * d.time + intercept
        t_acc += d.time
        total_proposals += d.proposals
        total_events += d.clock_events
    return _draw(t_acc, total_proposals, total_events)


def sample_batch(
    problem: ExactProblem,
    n: int,
    master_seed: int,
    *,
    split: int | None = None,
) -> list[FptDraw]:
    """Draw ``n`` exact passage times on per-index substreams.

    Sample ``i`` uses the generator ``substream(master_seed, i)`` and takes
    its randomness in blocks from that generator alone (see the module
    docstring), so it does not depend on the batch size or on which indices
    were drawn before it.  A curvy problem whose start gap is within its
    ``epsilon`` is refused: every draw would be 0.
    """
    kernel = problem._kernel
    if kernel.curvy is not None and kernel.delta <= kernel.curvy[1].epsilon:
        raise ConfigurationError(f"start gap {kernel.delta} is within epsilon = "
                                 f"{kernel.curvy[1].epsilon}: every draw would be 0; "
                                 "lower epsilon below the gap")
    if split is not None:
        draw = lambda rng: sample_exact_split(problem, split, rng)
    elif problem.threshold.orientation is Orientation.ABOVE_START:
        draw = lambda rng: sample_exact(problem, rng)
    else:
        draw = lambda rng: sample_exact_below(problem, rng)
    return sample_many(draw, n, master_seed)


def iteration_bound_linear(a: float, b: float, kappa: float) -> float:
    """Upper bound on expected proposals per acceptance for the line ``a t + b``.

    Requires ``a*b < 0`` (almost-surely hitting line) and ``kappa > 0``::

        E[I] <= exp( a*b * (1 - sqrt(1 + 2*kappa / a^2)) ).
    """
    if not (math.isfinite(a) and math.isfinite(b) and a * b < 0.0):
        raise ParameterError(f"need a*b < 0, got a={a}, b={b}")
    if not kappa > 0.0:
        raise ParameterError(f"kappa must be positive, got {kappa}")
    ab = a * b
    return math.exp(ab - ab * math.sqrt(1.0 + 2.0 * kappa / (a * a)))


def choose_split_count(a: float, b: float, kappa_max: float) -> int:
    """Stage count for which the per-stage proposal bound stays below ``e``.

    Returns ``floor( a*b * (1 - sqrt(1 + 2*kappa_max / a^2)) ) + 1`` (at least
    1): with this many stages the exponent of :func:`iteration_bound_linear`
    per stage is below 1, so total expected proposals are at most ``k * e``.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a * b < 0.0):
        raise ParameterError(f"need a*b < 0, got a={a}, b={b}")
    if not kappa_max > 0.0:
        raise ParameterError(f"kappa_max must be positive, got {kappa_max}")
    ab = a * b
    k = math.floor(ab * (1.0 - math.sqrt(1.0 + 2.0 * kappa_max / (a * a)))) + 1
    return max(1, k)


def run_thinning_trial(
    intensity: Callable[[float], float],
    horizon: float,
    kappa: float,
    rng: np.random.Generator,
) -> int:
    """Count rate-``kappa`` clock events on ``[0, horizon]`` below the graph.

    The zero-count probability is ``exp(-int_0^horizon intensity)``, which is
    the acceptance mechanism of the exact sampler in isolation (validation
    rig).  ``intensity`` values must lie in ``[0, kappa]``.
    """
    if not kappa > 0.0:
        raise ParameterError(f"kappa must be positive, got {kappa}")
    if not horizon >= 0.0:
        raise ParameterError(f"horizon must be >= 0, got {horizon}")
    scale = 1.0 / kappa
    ceiling = _rate_ceiling(kappa)
    below = 0
    t = rng.exponential(scale)
    while t <= horizon:
        u = rng.random()
        v = _guard_rate(intensity(t), ceiling, t)
        if kappa * u <= v:
            below += 1
        t += rng.exponential(scale)
    return below
