"""Exact first-passage-time sampling by rejection with Poisson thinning.

Target: ``tau = inf{t : X_t = beta(t)}`` for ``dX = alpha(X) dt + dB`` started
at ``x0`` off the threshold, on either side of it.  A change of measure to a
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
start shifted to 0, drift ``g`` removed, a threshold below the start reflected),
which :class:`ExactProblem` builds once per problem; :func:`sample_exact`
draws it on either side of the threshold.  The threshold picks the proposal:
closed-form for a line (inverse Gaussian, or Lévy for a flat frame), the line
iteration of :func:`fptsim.bm_fpt.sample_fpt_curvy` with the problem's
``curvy`` parameters and the frame's ``inf_slope`` as line slope for a curve.
At a clock event ``E`` in ``[0, tau_W]`` the path state enters as

    x_rec = beta(E) -/+ || (E/tau_W) * delta * e1 + l_E ||,

where ``sign`` and ``delta = |beta(0) - x0|`` are the side and gap of the
start (:meth:`fptsim.model.Threshold.validate_start`, the one side rule),
``delta`` is the frame at 0, and ``l`` is a pinned 3-D Brownian bridge
that the event loop updates in place from one event to the next
(:func:`_bridge_coeffs`); ``sign`` places the reconstruction on the
starting side of the threshold.  The distance
``|| (E/tau_W) * delta * e1 + l_E ||`` is the Bessel(3) bridge from 0 to
``delta`` evaluated at ``E``, i.e. the path-to-threshold gap of the
*time-reversed* proposal path, which runs from 0 at the hit back to ``delta``
at time 0.  Pairing the forward-time rate ``gamma1(E)`` with the
reversed-path state is valid because acceptance depends on the path only
through ``int_0^tau gamma1(s) + gamma2(X_s) ds``, which is invariant under
reversing the time argument of either summand.  Acceptance happens with
probability ``eta(tau_W)``, hence accepted proposals follow the target law
and the expected number of proposals per acceptance equals ``1 / N_c`` (see
:func:`expected_proposals`).

As ``gamma1(t) = -d/dt A_g(beta(t))`` with ``A_g(x) = A(x) - g*x``, its factor of
``eta`` is ``exp(-Gamma1(tau_W))``, ``Gamma1(t) = A_g(beta(0)) - A_g(beta(t))``.  A pair
with ``GammaPair.space_kappa`` (Example 1 where its space rate is non-negative, and
Example 2) certifies ``gamma1 >= 0``, takes that factor on one uniform ``U`` (refusing
one above 1 beyond round-off) and thins ``gamma2`` alone at rate ``space_kappa``; all
others thin the sum at ``kappa``.  A line draws ``U`` after ``tau_W``, a curve before its
iteration, which stops (:func:`_time_stop`) at the first iterate with ``Gamma1 >= -ln U``.

The reconstruction is exact for constant and linear thresholds, where the
conditioned gap of the reference motion is exactly a Bessel(3) bridge.  For
curvy thresholds it is not: the gap of a path conditioned to first hit a
curve at ``tau_W`` is a Bessel(3) bridge reweighted by
``exp(-int_0^tau G_s beta''(s) ds)``, so accepted times carry a bias that
does not shrink with epsilon (Example 2 at epsilon = 2^-20 against improved
Euler: two-sample KS p = 3.3e-6).  The fix, a reconstruction that follows
the line iterates of the proposal, is ROADMAP item 1.

``_kernel_of`` alone builds the proposal frame, checks a problem's parts,
picks the proposal from ``threshold.linear`` and returns its kernel form
(``_Kernel``: plain floats and callables, with the start gap
``delta = phi(0)``), which the sampler runs on without rebuilding or
re-checking anything per draw.  :class:`ExactProblem` stores it, neuron
stages included, and :func:`sample_exact_split` builds each stage's kernel
through it from the stage's own line and start.

Each call takes all of its randomness from two per-call block streams of 16
values on its own generator (:func:`draw_streams`), one of standard normals
and one of uniforms on [0, 1): the bridge normals and the event marks, the
clock gaps (``1/kappa`` times ``-log(1 - u)``, standard exponentials by
inversion) and every proposal.  A line proposal is one draw of
:func:`fptsim.bm_fpt._linear_time` (a Wald time by the Michael-Schucany-Haas
transform, a flat line's ``(b/z)^2``, a rising line's hit uniform), and a
curved one takes its line draws from the same core and its start gap from the
kernel, so no proposal makes a numpy call of its own.  Nothing is carried from one call
to the next, except across the stages of a spike train, which share the
train's streams (the ``streams`` keyword of :func:`sample_exact`), and of a
split draw, which share the draw's.

For distant linear thresholds, :func:`sample_exact_split` chains ``k``
intermediate sub-problems (strong Markov property), turning a cost that is
exponential in the gap into ``k`` times a bounded per-stage cost; see
:func:`iteration_bound_linear` and :func:`choose_split_count`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .bm_fpt import CurvyParams, FptDraw, _draw, _linear_time, _require_line_slope, sample_fpt_curvy
from .errors import ConfigurationError, DomainError, NonTerminationError, ParameterError
from .model import (
    GAMMA_NEGATIVE_TOLERANCE,
    GammaPair,
    Threshold,
    UnitDiffusionSDE,
    _check_kappa,
    _frame,
    _gamma1,
    _guard_rate,
    _rate_ceiling,
    linear_threshold,
)
from .rng import block_stream, sample_many

__all__ = [
    "ExactProblem",
    "sample_exact",
    "sample_exact_below",
    "sample_exact_split",
    "sample_batch",
    "iteration_bound_linear",
    "choose_split_count",
    "expected_proposals",
    "draw_streams",
]

#: Values per block of the per-call random streams of the sampler.
_EVENT_BLOCK = 16
#: The guard ceiling of the time rate's integral, which has no upper bound.
_UNBOUNDED = _rate_ceiling(None)


def _bridge_coeffs(tau_w: float, e0: float, e1: float) -> tuple[float, float]:
    """Conditional-update coefficients of the pinned bridge at ``e1``.

    Given the bridge value at ``e0`` and the pin at ``tau_w``, the value at
    ``e1`` is ``c1 * l + c2 * G`` with a standard normal 3-vector ``G``.
    Needs ``e0 <= e1 <= tau_w`` and ``e0 < tau_w``: the event loop of
    :func:`_sample_oriented` steps from 0 or the previous event to the next
    one at or before ``tau_w > 0``.
    """
    denom = tau_w - e0
    c1 = (tau_w - e1) / denom
    c2 = math.sqrt((tau_w - e1) * (e1 - e0) / denom)
    return c1, c2


@dataclass(frozen=True)
class ExactProblem:
    """Everything the exact sampler needs for one threshold problem.

    ``gammas`` must carry a ``kappa`` bound and must have been built from
    ``(sde, threshold)`` with the same ``reference_drift`` (or be certified
    equivalent by the caller); runtime guards abort on out-of-range rates
    rather than silently biasing output.  ``curvy`` holds a curved
    threshold's line-iteration parameters and is ``None`` for a line; the
    lines take the frame's ``inf_slope``, and a curve whose frame has none is
    refused with :class:`ConfigurationError`.  The
    constructor checks the parts and builds the plain-value form the sampler
    runs on, once for every draw, in :func:`_kernel_of`; the proposal frame
    of a curved threshold is ``_kernel.curvy[0]``, and :func:`sample_exact`
    draws it on either side of the threshold.  Only :func:`sample_batch`
    refuses a curvy start within ``epsilon``: grids ignore it, and a chain
    stage passes at once.
    """

    sde: UnitDiffusionSDE
    threshold: Threshold
    gammas: GammaPair
    curvy: CurvyParams | None = None
    max_proposals: int = 10**6
    _kernel: _Kernel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_kernel", _kernel_of(self.sde.x0, self.sde, self.threshold,
                                                       self.gammas, self.curvy, self.max_proposals))


class _Kernel(NamedTuple):
    """An exact problem as :func:`_sample_oriented` runs it: plain values only.

    ``beta`` is the threshold and ``sign`` the sign of ``beta(0) - x0``, the
    rate is ``gamma1(t) + gamma2(x)`` under the clock rate ``kappa`` and its
    guard ``ceiling``, and ``delta`` is the start gap ``phi(0)`` of the proposal
    frame ``phi``.  ``time = (A, g, x0, A_g(beta(0)), floor)`` is set, and ``gamma1``
    ``None``, when ``kappa`` bounds ``gamma2`` alone (``space_kappa``).  Exactly
    one of ``line`` and ``curvy`` is set.
    ``line = (slope, intercept)`` is the frame line, whose passage of standard
    Brownian motion :func:`_linear_time` draws; ``curvy = (phi, params)`` runs
    :func:`sample_fpt_curvy`.
    """

    beta: Callable[[float], float]
    sign: float
    gamma1: Callable[[float], float]
    gamma2: Callable[[float], float]
    kappa: float
    ceiling: float
    delta: float
    max_proposals: int
    line: tuple | None
    curvy: tuple | None
    time: tuple | None


def _line_part(slope: float, intercept: float) -> tuple:
    """``_Kernel.line`` of the frame line ``slope * t + intercept``, ``intercept > 0``."""
    if not intercept > 0.0:
        raise ConfigurationError(f"translated proposal intercept {intercept} must be positive")
    return slope, intercept


def _kernel_of(x0: float, sde: UnitDiffusionSDE, threshold: Threshold, gammas: GammaPair,
               curvy: CurvyParams | None, max_proposals: int) -> _Kernel:
    """The checked kernel of a problem's parts (see :class:`ExactProblem`).

    The SDE enters through the start ``x0`` (a split stage's own), its
    ``alpha`` and ``A`` (read only for ``space_kappa``) and the rates, and
    ``threshold.linear`` alone picks the proposal.  Checks in order:
    ``kappa`` is set, finite and positive, ``max_proposals >= 1``, the start
    (:meth:`Threshold.validate_start`, which gives the kernel's ``sign`` and
    start gap ``delta = phi(0)``; the frame ``phi`` is built on its side, so
    ``beta(0)`` is read once), the reference drift is finite, ``curvy``
    is ``None`` for a line and set for a curve, a curve's frame has an
    ``inf_slope`` (its line slope), a set ``space_kappa`` is finite and positive
    with ``gamma1(0) >= 0`` in closed form, and a line's frame intercept is positive.
    """
    kappa = gammas.kappa
    if kappa is None:
        raise ConfigurationError("gammas.kappa must be set for sampling")
    _check_kappa(kappa)
    if max_proposals < 1:
        raise ParameterError(f"max_proposals must be >= 1, got {max_proposals}")
    sign, delta = threshold.validate_start(x0)
    g = gammas.reference_drift
    if not math.isfinite(g):
        raise ParameterError(f"reference drift must be finite, got {g}")
    frame = _frame(threshold, sign, x0, g)
    linear = threshold.linear is not None
    if linear and curvy is not None:
        raise ConfigurationError("CurvyParams apply to curved thresholds only; this one is a line")
    if not linear:
        if curvy is None:
            raise ConfigurationError("a curved threshold needs CurvyParams for its proposals")
        _require_line_slope(frame)
    time = None
    if gammas.space_kappa is not None:
        kappa = _check_kappa(gammas.space_kappa, "space_kappa")
        b0 = x0 + sign * delta  # beta(0), read once by validate_start
        rate0, closed = gammas.gamma1(0.0), -(sde.alpha(b0) - g) * threshold.beta_prime(0.0)
        if not (abs(rate0 - closed) <= 1e-9 * max(1.0, abs(closed))
                and closed >= -GAMMA_NEGATIVE_TOLERANCE):
            raise ConfigurationError(f"space_kappa needs gamma1(0) = {closed} >= 0, got {rate0}")
        a0 = sde.A(b0) - g * b0
        time = (sde.A, g, x0, a0, -GAMMA_NEGATIVE_TOLERANCE * max(1.0, abs(a0)))
    return _Kernel(
        threshold.beta, sign, gammas.gamma1 if time is None else None, gammas.gamma2,
        kappa, _rate_ceiling(kappa), delta, max_proposals,
        _line_part(*frame.linear) if linear else None,
        None if linear else (frame, curvy), time,
    )


def expected_proposals(problem: ExactProblem) -> float:
    """Expected proposals per acceptance, ``exp(A_g(beta(0)) - A_g(x0))``.

    ``A_g(x) = A(x) - g*x`` is the drift antiderivative relative to the
    reference measure.  Valid when the target passage is almost surely finite.
    An exponent too large for a float is refused with :class:`DomainError`.
    """
    g = problem.gammas.reference_drift
    A = problem.sde.A
    x0 = problem.sde.x0
    b0 = problem.threshold.beta(0.0)
    exponent = (A(b0) - g * b0) - (A(x0) - g * x0)
    try:
        return math.exp(exponent)
    except OverflowError:
        raise DomainError(f"expected proposals exp({exponent}) overflow a float") from None


def draw_streams(rng: np.random.Generator, size: int = _EVENT_BLOCK) -> tuple:
    """The ``(normal, uniform, standard exponential)`` streams of exact draws.

    Two block streams of ``size`` values on ``rng``; the exponential stream is
    ``-log(1 - u)`` of the next uniform, so it shares the uniforms' blocks.  As
    ``u`` lies in [0, 1), ``1 - u`` lies in (0, 1] and the log is finite.
    """
    normal, uniform = block_stream(rng.standard_normal, size), block_stream(rng.random, size)
    log = math.log
    return normal, uniform, lambda: -log(1.0 - uniform())


def _time_stop(time: tuple, sign: float, bounds: list) -> Callable[[float, float], bool]:
    """Split-clock stop at ``(t, phi(t))``, ``beta(t) = x0 + g*t + sign*phi(t)``: true once
    ``A_g(beta(t)) <= bounds[0]``; a rise beyond ``-floor`` from ``bounds[1]`` is ``gamma1 < 0``."""
    A, g, x0, _, floor = time

    def stop(t: float, phi_t: float) -> bool:
        b = x0 + g * t + sign * phi_t
        a = A(b) - g * b
        if not a <= bounds[1]:
            _guard_rate(bounds[1] - a, _UNBOUNDED, t, floor=floor)
        bounds[1] = a
        return a <= bounds[0]
    return stop


def _sample_oriented(k: _Kernel, rng: np.random.Generator, streams: tuple | None = None) -> FptDraw:
    """One exact draw of the problem ``k``.

    Proposals are reference passage times to the frame (``inf`` for
    non-hitting or horizon-censored ones, which count as rejections).  A
    line draws its passage by :func:`_linear_time` on the ``normal`` and
    ``uniform`` streams; a curve calls :func:`sample_fpt_curvy` on them with
    the kernel's start gap and :func:`_time_stop`, adding its line draws to
    ``line_draws``.  ``streams`` default to new ones on ``rng``.
    """
    beta, sign, gamma1, gamma2, kappa, ceiling, delta, max_proposals, line, curvy, time = k
    normal, uniform, exponential = draw_streams(rng) if streams is None else streams
    scale = 1.0 / kappa
    if curvy is None:
        slope, intercept = line
    else:
        phi, params = curvy
        horizon = params.horizon
        bounds = [0.0, 0.0]  # per proposal: A_g(beta(0)) + ln u, and A_g at the last iterate
        stop = None if time is None else _time_stop(time, sign, bounds)
    if time is not None:
        A, g, _, a0, floor = time
    line_draws = 0
    bridge_coeffs = _bridge_coeffs
    guard_rate = _guard_rate

    total_events = 0
    for attempt in range(1, max_proposals + 1):
        if curvy is not None:
            if time is not None:
                u = uniform()
                bounds[:] = (a0 + math.log(u) if u > 0.0 else -math.inf), a0
            d = sample_fpt_curvy(phi, params, rng, normal=normal, uniform=uniform, gap=delta,
                                 stop=stop)
            line_draws += d.clock_events
            tau = d.time if d.time < horizon else math.inf
        else:
            tau = _linear_time(slope, intercept, normal, uniform)
        if tau == math.inf:
            continue
        if tau <= 0.0:
            return _draw(0.0, attempt, total_events, line_draws)
        if time is not None:
            # keep tau with probability exp(-int_0^tau gamma1), in closed form
            u = uniform() if curvy is None else u
            b = beta(tau)
            if u >= math.exp(-guard_rate(a0 - (A(b) - g * b), _UNBOUNDED, tau, floor=floor)):
                continue
        e0 = 0.0
        e1 = scale * exponential()
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
            v = guard_rate(gamma2(x_rec) if gamma1 is None else gamma1(t_fwd) + gamma2(x_rec),
                           ceiling, t_fwd, x_rec)
            if kappa * uniform() <= v:
                break
            e0 = e1
            e1 += scale * exponential()
        else:
            return _draw(tau, attempt, total_events, line_draws)
    raise NonTerminationError(
        f"no acceptance within {max_proposals} proposals; "
        "check kappa and the proposal horizon"
    )


def sample_exact(problem: ExactProblem, rng: np.random.Generator, *,
                 streams: tuple | None = None) -> FptDraw:
    """One exact passage time, either side of the threshold, from ``streams``
    (:func:`draw_streams`) when given, where the last draw on them stopped."""
    return _sample_oriented(problem._kernel, rng, streams)


sample_exact_below = sample_exact  # the name the neuron's stages call; not a wrapper


def sample_exact_split(
    problem: ExactProblem, k: int, rng: np.random.Generator
) -> FptDraw:
    """Exact passage time to a linear threshold via ``k`` chained stages.

    Stage ``i`` runs the exact sampler from the previous hit point to the
    parallel line through level ``x0 + (beta(0) - x0) * i / k``; by the strong
    Markov property the summed stage times follow the original passage law,
    and ``k = 1`` is the plain single-stage path.  Each stage's kernel comes
    from :func:`_kernel_of`, with the stage's line, its start at the previous
    hit and that line's ``gamma1`` (as :func:`make_gamma_pair` builds it);
    ``gamma2``, ``kappa`` and the budget are the problem's.  Every stage is a
    line, so it draws closed-form line proposals, on the problem's side of
    the threshold; a stage line rounded onto or past its start is refused.
    The stages share one set of streams (:func:`draw_streams`) on ``rng``.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if problem.threshold.linear is None:
        raise ConfigurationError("space splitting requires a linear threshold")
    a, b = problem.threshold.linear
    sde, gammas = problem.sde, problem.gammas
    x0, g, side = sde.x0, gammas.reference_drift, problem._kernel.sign

    streams = draw_streams(rng)
    t_acc = 0.0
    x_cur = x0
    total_proposals = 0
    total_events = 0
    for i in range(1, k + 1):
        line = linear_threshold(a, a * t_acc + (x0 + (b - x0) * (i / k)))
        stage_gammas = GammaPair(_gamma1(sde.alpha, line, g), gammas.gamma2, gammas.kappa, g)
        kernel = _kernel_of(x_cur, sde, line, stage_gammas, None, problem.max_proposals)
        if kernel.sign != side:
            raise ConfigurationError(f"split stage {i} starts past its line: x = {x_cur}")
        d = _sample_oriented(kernel, rng, streams)
        x_cur = line.beta(d.time)
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
    draw = (partial(sample_exact, problem) if split is None
            else partial(sample_exact_split, problem, split))
    return sample_many(draw, n, master_seed)


def _split_exponent(a: float, b: float, kappa: float, name: str = "kappa") -> float:
    """``a*b * (1 - sqrt(1 + 2*kappa / a^2))``, the log of the bound of
    :func:`iteration_bound_linear`, once ``a*b < 0`` and ``kappa`` (named
    ``name`` in the refusal) are checked."""
    if not (math.isfinite(a) and math.isfinite(b) and a * b < 0.0):
        raise ParameterError(f"need a*b < 0, got a={a}, b={b}")
    _check_kappa(kappa, name)
    return a * b * (1.0 - math.sqrt(1.0 + 2.0 * kappa / (a * a)))


def iteration_bound_linear(a: float, b: float, kappa: float) -> float:
    """Upper bound on expected proposals per acceptance for the line ``a t + b``.

    Requires ``a*b < 0`` (almost-surely hitting line) and a finite ``kappa > 0``::

        E[I] <= exp( a*b * (1 - sqrt(1 + 2*kappa / a^2)) ).
    """
    return math.exp(_split_exponent(a, b, kappa))


def choose_split_count(a: float, b: float, kappa_max: float) -> int:
    """Stage count for which the per-stage proposal bound stays below ``e``.

    Returns ``floor( a*b * (1 - sqrt(1 + 2*kappa_max / a^2)) ) + 1`` (at least
    1): with this many stages the exponent of :func:`iteration_bound_linear`
    per stage is below 1, so total expected proposals are at most ``k * e``.
    """
    return max(1, math.floor(_split_exponent(a, b, kappa_max, "kappa_max")) + 1)

