"""Problem containers and the reduction of a general SDE to unit diffusion.

A scalar SDE ``dY = mu(Y) dt + sigma(Y) dB`` with smooth ``sigma > 0`` is
mapped by the Lamperti transform ``X = F(Y)``, ``F(y) = int^y dz / sigma(z)``,
to a process with unit diffusion coefficient::

    dX = alpha(X) dt + dB,
    alpha(x) = mu(F^-1(x)) / sigma(F^-1(x)) - sigma'(F^-1(x)) / 2.

All sampling in this package happens in the transformed coordinates.  The
rejection sampler needs, besides ``alpha``, its antiderivative ``A`` and its
derivative ``alpha'``, and two rate functions derived from the drift and the
threshold ``beta``::

    gamma1(t) = -(alpha(beta(t)) - g) * beta'(t)
    gamma2(x) = (alpha'(x) + alpha(x)^2 - g^2) / 2

where ``g`` is the drift of the reference Brownian motion the sampler
measures against (``g = 0`` means plain Brownian motion; a nonzero ``g``
trades a constant part of ``gamma2`` for a tilted proposal and must be used
consistently by the sampler).  Acceptance requires ``gamma1(t) + gamma2(x)``
to stay within ``[0, kappa]`` at every evaluation point; this module builds
the pair and estimates ``kappa`` on a grid.  ``gamma1 = -d/dt A_g(beta(t))``,
``A_g(x) = A(x) - g*x``, integrates in closed form, which the sampler uses
when ``GammaPair.space_kappa`` bounds ``gamma2`` alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import AssumptionViolation, ConfigurationError, DomainError, ParameterError

__all__ = [
    "GeneralSDE",
    "UnitDiffusionSDE",
    "Threshold",
    "GammaPair",
    "lamperti_transform",
    "make_gamma_pair",
    "estimate_kappa",
    "linear_threshold",
    "constant_threshold",
    "validate_unit_sde",
]

#: Evaluations of gamma1 + gamma2 this far below zero are treated as round-off
#: and clamped to zero; anything lower aborts the run.
GAMMA_NEGATIVE_TOLERANCE = 1e-12
#: Relative slack allowed above kappa before aborting.
GAMMA_UPPER_SLACK = 1e-9
#: Safety margin applied on top of the grid maximum by :func:`estimate_kappa`.
KAPPA_MARGIN = 0.05
#: Smallest clock rate handed to the sampler for degenerate (all-zero) rates.
KAPPA_FLOOR = 1e-6
#: Points of each grid :func:`estimate_kappa` takes its maxima over.
_KAPPA_GRID = 2001

_QUAD_ABSTOL = 1e-10
_INVERT_TOL = 1e-12


@dataclass(frozen=True)
class GeneralSDE:
    """``dY = mu(Y) dt + sigma(Y) dB`` started at ``y0``, with ``sigma > 0``."""

    mu: Callable[[float], float]
    sigma: Callable[[float], float]
    sigma_prime: Callable[[float], float]
    y0: float

    def sigma_checked(self, y: float) -> float:
        s = self.sigma(y)
        if not math.isfinite(s) or s <= 0.0:
            raise DomainError(f"sigma({y}) = {s} must be finite and positive")
        return s


@dataclass(frozen=True)
class UnitDiffusionSDE:
    """``dX = alpha(X) dt + dB`` started at ``x0``.

    ``A`` is an antiderivative of ``alpha`` (any constant offset is fine: only
    differences of ``A`` are ever used) and ``alpha_prime`` its derivative.
    The callables should be numpy-polymorphic (accept a scalar or an ndarray
    elementwise); the vectorized grid simulator relies on this.
    """

    alpha: Callable[[float], float]
    alpha_prime: Callable[[float], float]
    A: Callable[[float], float]
    x0: float


@dataclass(frozen=True)
class Threshold:
    """Time-dependent threshold ``beta`` with derivative and slope bounds.

    It is a curve only: a process from ``x0`` passes it from the side of its
    start, the sign of ``beta(0) - x0``.  ``inf_slope``/``sup_slope`` bound
    ``beta'`` over the whole horizon of use (``None`` when unknown); the
    curvy proposal sampler draws its lines at the ``inf_slope`` of the
    threshold's proposal frame.  ``linear`` carries ``(a, b)``
    when ``beta(t) = a*t + b`` exactly, which unlocks closed-form proposals
    and space splitting.
    """

    beta: Callable[[float], float]
    beta_prime: Callable[[float], float]
    inf_slope: float | None = None
    sup_slope: float | None = None
    linear: tuple[float, float] | None = None

    def validate_start(self, x0: float) -> tuple[float, float]:
        """The side rule, which every sampler places its start by: the side
        ``s`` (1.0 if ``beta(0) > x0``, else -1.0) and the start gap
        ``s * (beta(0) - x0)``.  A ``beta(0)`` that is not finite is refused
        (:class:`DomainError`), so is a start on it (:class:`ConfigurationError`)
        and a gap that is not finite (:class:`ParameterError`)."""
        b0 = self.beta(0.0)
        if not math.isfinite(b0):
            raise DomainError(f"beta(0) = {b0} is not finite")
        if b0 == x0:
            raise ConfigurationError(f"the start x0={x0} lies on the threshold: beta(0)={b0}")
        side = 1.0 if b0 > x0 else -1.0
        gap = side * (b0 - x0)
        if not gap < math.inf:  # also false for nan
            raise ParameterError(f"start gap {gap} is not finite: x0 = {x0}, beta(0) = {b0}")
        return side, gap

    def proposal_frame(self, x0: float = 0.0, g: float = 0.0) -> "Threshold":
        """This threshold as a reference Brownian motion from 0 sees it.

        The reference motion has drift ``g`` and starts at ``x0``; shifting
        the start to 0, removing the drift and reflecting a threshold below
        the start (by the side ``s`` of :meth:`validate_start`) gives the
        above-start threshold ``phi(t) = s * (beta(t) - g*t - x0)`` with
        ``phi' = s * (beta' - g)``, passed by standard Brownian motion from 0
        at the same times.  The slope bounds are tilted by ``g`` and swap
        sides when ``s = -1``; ``linear = (a, b)`` maps to
        ``(s * (a - g), s * (b - x0))``.  ``phi(0)`` is the start gap.
        """
        return _frame(self, self.validate_start(x0)[0], x0, g)

    def validate_slopes(self, ts: Sequence[float], tol: float = 1e-9) -> None:
        for t in ts:
            d = self.beta_prime(t)
            if self.inf_slope is not None and d < self.inf_slope - tol:
                raise ConfigurationError(
                    f"beta'({t}) = {d} violates inf_slope = {self.inf_slope}"
                )
            if self.sup_slope is not None and d > self.sup_slope + tol:
                raise ConfigurationError(
                    f"beta'({t}) = {d} violates sup_slope = {self.sup_slope}"
                )


def _frame(th: Threshold, s: float, x0: float, g: float) -> Threshold:
    """:meth:`Threshold.proposal_frame` of ``th`` on the side ``s`` its caller
    holds from :meth:`Threshold.validate_start`, without reading ``beta(0)`` again."""
    beta, beta_prime, linear = th.beta, th.beta_prime, th.linear
    lo, hi = (th.inf_slope, th.sup_slope) if s > 0 else (th.sup_slope, th.inf_slope)
    # a Threshold has no checks, so the fill equals the constructor
    return _fill(Threshold, {
        "beta": lambda t: s * (beta(t) - g * t - x0),
        "beta_prime": lambda t: s * (beta_prime(t) - g),
        "inf_slope": None if lo is None else s * (lo - g),
        "sup_slope": None if hi is None else s * (hi - g),
        "linear": None if linear is None else (s * (linear[0] - g), s * (linear[1] - x0)),
    })


def linear_threshold(a: float, b: float) -> Threshold:
    """Threshold ``beta(t) = a*t + b``; a non-finite ``a`` or ``b`` is
    refused with :class:`ParameterError`."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ParameterError(f"a and b must be finite, got a={a}, b={b}")
    # a Threshold has no checks, so the fill equals the constructor
    return _fill(Threshold, {"beta": lambda t: a * t + b, "beta_prime": lambda t: a,
                             "inf_slope": a, "sup_slope": a, "linear": (a, b)})


def constant_threshold(level: float) -> Threshold:
    """Threshold ``beta(t) = level``."""
    return linear_threshold(0.0, level)


def _fill(cls: type, fields: dict):
    """An instance of the frozen dataclass ``cls`` holding ``fields``.

    It runs no ``__init__`` and no ``__post_init__``, so only a caller whose
    values already meet every check of ``cls`` may use it, and ``fields``
    must name every field.
    """
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


def _rate_ceiling(kappa: float | None) -> float:
    """Largest rate accepted under the bound ``kappa``, round-off slack included.

    Without a bound (``kappa`` is ``None``) it is the largest finite float.
    """
    if kappa is None:
        return sys.float_info.max
    return kappa + GAMMA_UPPER_SLACK * max(1.0, kappa)


def _check_kappa(kappa: float, name: str = "kappa") -> float:
    """``kappa`` when it is a finite positive clock rate; else :class:`ParameterError`."""
    if not math.isfinite(kappa) or kappa <= 0.0:
        raise ParameterError(f"{name} must be finite and positive, got {kappa}")
    return kappa


def _guard_rate(v: float, ceiling: float, t: float, x: float | None = None,
                floor: float = -GAMMA_NEGATIVE_TOLERANCE) -> float:
    """Check a rejection rate ``v`` evaluated at time ``t`` (and state ``x``).

    A non-finite ``v`` raises :class:`DomainError`.  Values in ``[floor, 0)``
    (``floor = -GAMMA_NEGATIVE_TOLERANCE`` by default) are round-off and are
    clamped to zero; values below that, or above ``ceiling`` (finite, see
    :func:`_rate_ceiling`), raise :class:`AssumptionViolation` because they
    would silently bias the sampler.
    """
    if 0.0 <= v <= ceiling:  # false for NaN and, as the ceiling is finite, for inf
        return v
    where = f"(t={t})" if x is None else f"(t={t}, x={x})"
    if not math.isfinite(v):
        raise DomainError(f"rate at {where} is {v}")
    if v < floor:
        raise AssumptionViolation(
            f"rate {v} < 0 at {where}; the rate functions are invalid for this problem"
        )
    if v < 0.0:
        return 0.0
    raise AssumptionViolation(f"rate {v} exceeds its ceiling {ceiling} at {where}")


@dataclass(frozen=True)
class GammaPair:
    """Rejection-rate pair with optional upper bounds.

    ``gamma1``/``gamma2`` are the rate functions and ``kappa`` bounds their
    sum; ``space_kappa``, when set, certifies ``gamma1 >= 0`` and ``0 <= gamma2
    <= space_kappa`` wherever the reconstructed path can be, and the sampler then
    accepts the time rate in closed form and thins ``gamma2`` alone at that rate.
    ``reference_drift`` records the constant drift ``g`` of the
    reference measure the pair was built against; the sampler must draw its
    proposals from the first-passage law of a Brownian motion with that
    drift.  Changing the reference drift is the law-preserving way to remove
    a constant from ``gamma2``.
    """

    gamma1: Callable[[float], float]
    gamma2: Callable[[float], float]
    kappa: float | None = None
    reference_drift: float = 0.0
    space_kappa: float | None = None

    def evaluate(self, t: float, x: float) -> float:
        """Rate ``gamma1(t) + gamma2(x)``, checked by :func:`_guard_rate`
        against ``kappa`` (when set) plus round-off slack."""
        return _guard_rate(self.gamma1(t) + self.gamma2(x), _rate_ceiling(self.kappa), t, x)

    def with_kappa(self, kappa: float) -> "GammaPair":
        return replace(self, kappa=_check_kappa(kappa))


def _gamma1(alpha: Callable[[float], float], threshold: Threshold, g: float) -> Callable:
    """``gamma1(t) = -(alpha(beta(t)) - g) * beta'(t)``; a line ``(a, b)`` enters
    as ``a*t + b`` and ``a``, the same floats without two calls per rate."""
    if threshold.linear is None:
        beta, beta_prime = threshold.beta, threshold.beta_prime
        return lambda t: -(alpha(beta(t)) - g) * beta_prime(t)
    a, b = threshold.linear
    return lambda t: -(alpha(a * t + b) - g) * a


def make_gamma_pair(
    sde: UnitDiffusionSDE, threshold: Threshold, reference_drift: float = 0.0
) -> GammaPair:
    """Build the rejection-rate pair for ``(sde, threshold)``.

    With reference drift ``g``::

        gamma1(t) = -(alpha(beta(t)) - g) * beta'(t)
        gamma2(x) = (alpha'(x) + alpha(x)^2 - g^2) / 2

    ``kappa`` is left unset; attach a bound with :meth:`GammaPair.with_kappa`
    or :func:`estimate_kappa`.
    """
    g = float(reference_drift)
    alpha = sde.alpha
    alpha_prime = sde.alpha_prime

    def gamma2(x: float) -> float:
        a = alpha(x)
        return 0.5 * (alpha_prime(x) + a * a - g * g)

    return GammaPair(gamma1=_gamma1(alpha, threshold, g), gamma2=gamma2, reference_drift=g)


def estimate_kappa(
    pair: GammaPair,
    t_max: float,
    x_lo: float,
    x_hi: float,
) -> float:
    """Grid estimate of an upper bound for the rate sum.

    Returns ``(1 + KAPPA_MARGIN) * (max gamma1 + max gamma2)`` over uniform
    grids of ``_KAPPA_GRID`` points on ``[0, t_max]`` and ``[x_lo, x_hi]``.  The
    sum of the two maxima bounds the maximum of the sum because the rates are
    separable.  A user-supplied analytic bound always beats this estimate; the margin only
    cushions grid undershoot, it is not a proof.  Rates that go negative on
    the grids (the sampler would abort) are refused with :class:`ParameterError`.
    """
    if not (t_max > 0.0 and math.isfinite(t_max)):
        raise ParameterError(f"t_max must be positive and finite, got {t_max}")
    if not (x_lo < x_hi and math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise ParameterError(f"need finite x_lo < x_hi, got [{x_lo}, {x_hi}]")
    g1 = np.array([pair.gamma1(t) for t in np.linspace(0.0, t_max, _KAPPA_GRID)])
    g2 = np.array([pair.gamma2(x) for x in np.linspace(x_lo, x_hi, _KAPPA_GRID)])
    if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
        raise DomainError("gamma evaluation produced non-finite values on the grid")
    least = float(g1.min()) + float(g2.min())
    if least < -GAMMA_NEGATIVE_TOLERANCE:
        raise ParameterError(f"the rates go negative on the kappa grid: "
                             f"min gamma1 + min gamma2 = {least}")
    bound = (1.0 + KAPPA_MARGIN) * (float(g1.max()) + float(g2.max()))
    # Degenerate (everywhere non-positive) rates still need a positive clock
    # rate; with the floor the clock almost never fires and every proposal is
    # accepted, which is the correct limit.
    return max(bound, KAPPA_FLOOR)


def lamperti_transform(sde: GeneralSDE, y_ref: float) -> UnitDiffusionSDE:
    """Transform ``sde`` to unit diffusion, using ``y_ref`` as ``F``'s origin.

    ``F`` is computed by adaptive quadrature of ``1/sigma`` (absolute
    tolerance ``1e-10``) and inverted by bracketed root finding to ``1e-12``;
    ``alpha'`` uses a central difference of ``alpha``, and ``A`` integrates
    ``alpha`` from ``F(y_ref) = 0``.  Evaluations are not cached: this path
    is meant for validation and problem set-up, not inner sampling loops.
    Problems with analytic transforms should supply them directly.  This is
    the one function of the module that loads scipy (``scipy.integrate`` and
    ``scipy.optimize``), on its first call.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    if not math.isfinite(y_ref):
        raise ParameterError(f"y_ref must be finite, got {y_ref}")
    sde.sigma_checked(y_ref)

    def F(y: float) -> float:
        val, _ = quad(lambda z: 1.0 / sde.sigma_checked(z), y_ref, y, epsabs=_QUAD_ABSTOL, limit=200)
        return val

    def F_inv(x: float) -> float:
        if x == 0.0:
            return y_ref
        lo = hi = y_ref
        step = 1.0
        for _ in range(200):
            if x > 0.0:
                hi = y_ref + step
                if F(hi) >= x:
                    lo = max(lo, hi - step)
                    break
            else:
                lo = y_ref - step
                if F(lo) <= x:
                    hi = min(hi, lo + step)
                    break
            step *= 2.0
        else:
            raise DomainError(f"could not bracket F^-1({x})")
        return float(brentq(lambda y: F(y) - x, lo, hi, xtol=_INVERT_TOL))

    def alpha(x: float) -> float:
        y = F_inv(x)
        s = sde.sigma_checked(y)
        return sde.mu(y) / s - 0.5 * sde.sigma_prime(y)

    h_base = float(np.cbrt(np.finfo(float).eps))

    def alpha_prime(x: float) -> float:
        h = h_base * max(1.0, abs(x))
        return (alpha(x + h) - alpha(x - h)) / (2.0 * h)

    def A(x: float) -> float:
        val, _ = quad(alpha, 0.0, x, epsabs=_QUAD_ABSTOL, limit=200)
        return val

    return UnitDiffusionSDE(alpha=alpha, alpha_prime=alpha_prime, A=A, x0=F(sde.y0))


def validate_unit_sde(
    sde: UnitDiffusionSDE, xs: Sequence[float], rtol: float = 1e-6
) -> None:
    """Spot-check that ``A' = alpha`` and ``alpha_prime = alpha'`` on a grid.

    Uses central finite differences; ``rtol`` is relative to ``max(1, |value|)``.
    Raises :class:`ConfigurationError` on mismatch.
    """
    h = float(np.cbrt(np.finfo(float).eps))
    for x in xs:
        hx = h * max(1.0, abs(x))
        da = (sde.A(x + hx) - sde.A(x - hx)) / (2.0 * hx)
        a = sde.alpha(x)
        if abs(da - a) > rtol * max(1.0, abs(a)):
            raise ConfigurationError(
                f"A is not an antiderivative of alpha at x={x}: dA/dx={da}, alpha={a}"
            )
        dap = (sde.alpha(x + hx) - sde.alpha(x - hx)) / (2.0 * hx)
        ap = sde.alpha_prime(x)
        if abs(dap - ap) > rtol * max(1.0, abs(ap)):
            raise ConfigurationError(
                f"alpha_prime mismatch at x={x}: finite difference {dap}, supplied {ap}"
            )
