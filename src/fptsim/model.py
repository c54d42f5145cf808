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
the pair, applies constant shifts, and estimates ``kappa`` on a grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import AssumptionViolation, ConfigurationError, DomainError, ParameterError

__all__ = [
    "Orientation",
    "GeneralSDE",
    "UnitDiffusionSDE",
    "Threshold",
    "GammaPair",
    "lamperti_transform",
    "make_gamma_pair",
    "shift_gamma_pair",
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

_QUAD_ABSTOL = 1e-10
_INVERT_TOL = 1e-12


class Orientation(Enum):
    """Side of the threshold the process starts on."""

    ABOVE_START = "above_start"  # beta(0) > x0: the process must move up
    BELOW_START = "below_start"  # beta(0) < x0: the process must move down

    def __init__(self, value: str) -> None:
        #: ``+1.0`` above the start, ``-1.0`` below: ``sign * (beta(0) - x0) > 0``
        self.sign = 1.0 if value == "above_start" else -1.0


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

    ``inf_slope``/``sup_slope`` bound ``beta'`` over the whole horizon of use
    (``None`` when unknown); they are required by the curvy proposal sampler.
    ``linear`` carries ``(a, b)`` when ``beta(t) = a*t + b`` exactly, which
    unlocks closed-form proposals and space splitting.
    """

    beta: Callable[[float], float]
    beta_prime: Callable[[float], float]
    orientation: Orientation
    inf_slope: float | None = None
    sup_slope: float | None = None
    linear: tuple[float, float] | None = None

    def validate_start(self, x0: float) -> None:
        b0 = self.beta(0.0)
        if not math.isfinite(b0):
            raise DomainError(f"beta(0) = {b0} is not finite")
        if not self.orientation.sign * (b0 - x0) > 0.0:
            raise ConfigurationError(
                f"{self.orientation.value} threshold lies on the wrong side of the "
                f"start: beta(0)={b0}, x0={x0}"
            )

    def proposal_frame(self, x0: float = 0.0, g: float = 0.0) -> "Threshold":
        """This threshold as a reference Brownian motion from 0 sees it.

        The reference motion has drift ``g`` and starts at ``x0``; shifting
        the start to 0, removing the drift and reflecting below-start
        thresholds (``s = orientation.sign``) gives the above-start threshold
        ``phi(t) = s * (beta(t) - g*t - x0)`` with ``phi' = s * (beta' - g)``,
        passed by standard Brownian motion from 0 at the same times.  The
        slope bounds are tilted by ``g`` and swap sides when ``s = -1``;
        ``linear = (a, b)`` maps to ``(s * (a - g), s * (b - x0))``.
        ``phi(0)`` is the start gap.
        """
        s = self.orientation.sign
        beta = self.beta
        beta_prime = self.beta_prime
        linear = self.linear
        lo, hi = (self.inf_slope, self.sup_slope) if s > 0 else (self.sup_slope, self.inf_slope)
        # a Threshold has no checks, so the fill equals the constructor
        return _fill(Threshold, {
            "beta": lambda t: s * (beta(t) - g * t - x0),
            "beta_prime": lambda t: s * (beta_prime(t) - g),
            "orientation": Orientation.ABOVE_START,
            "inf_slope": None if lo is None else s * (lo - g),
            "sup_slope": None if hi is None else s * (hi - g),
            "linear": None if linear is None else (s * (linear[0] - g), s * (linear[1] - x0)),
        })

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


def linear_threshold(a: float, b: float, orientation: Orientation) -> Threshold:
    """Threshold ``beta(t) = a*t + b``."""
    return Threshold(
        beta=lambda t: a * t + b,
        beta_prime=lambda t: a,
        orientation=orientation,
        inf_slope=a,
        sup_slope=a,
        linear=(a, b),
    )


def constant_threshold(level: float, orientation: Orientation) -> Threshold:
    """Threshold ``beta(t) = level``."""
    return linear_threshold(0.0, level, orientation)


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


def _guard_rate(v: float, ceiling: float, t: float, x: float | None = None) -> float:
    """Check a rejection rate ``v`` evaluated at time ``t`` (and state ``x``).

    A non-finite ``v`` raises :class:`DomainError`.  Values in
    ``[-GAMMA_NEGATIVE_TOLERANCE, 0)`` are round-off and are clamped to zero;
    values below that, or above ``ceiling`` (finite, see :func:`_rate_ceiling`),
    raise :class:`AssumptionViolation` because they would silently bias the
    sampler.
    """
    if 0.0 <= v <= ceiling:  # false for NaN and, as the ceiling is finite, for inf
        return v
    where = f"(t={t})" if x is None else f"(t={t}, x={x})"
    if not math.isfinite(v):
        raise DomainError(f"rate at {where} is {v}")
    if v < -GAMMA_NEGATIVE_TOLERANCE:
        raise AssumptionViolation(
            f"rate {v} < 0 at {where}; the rate functions are invalid for this problem"
        )
    if v < 0.0:
        return 0.0
    raise AssumptionViolation(f"rate {v} exceeds its ceiling {ceiling} at {where}")


@dataclass(frozen=True)
class GammaPair:
    """Rejection-rate pair with shift metadata and optional upper bound.

    ``gamma1``/``gamma2`` are the base rate functions; the effective rates are
    ``gamma1 - shift1`` and ``gamma2 - shift2``.  ``kappa`` bounds the
    effective sum.  ``reference_drift`` records the constant drift ``g`` of
    the reference measure the pair was built against; the sampler must draw
    its proposals from the first-passage law of a Brownian motion with that
    drift.  Only net-zero shifts (``k1 + k2 = 0``) preserve the sampled
    distribution for a fixed reference drift; changing the reference drift is
    the distribution-preserving way to remove a constant from ``gamma2``.
    """

    gamma1: Callable[[float], float]
    gamma2: Callable[[float], float]
    shift1: float = 0.0
    shift2: float = 0.0
    kappa: float | None = None
    reference_drift: float = 0.0

    def gamma1_at(self, t: float) -> float:
        return self.gamma1(t) - self.shift1

    def gamma2_at(self, x: float) -> float:
        return self.gamma2(x) - self.shift2

    def evaluate(self, t: float, x: float) -> float:
        """Effective rate ``gamma1_at(t) + gamma2_at(x)``, checked by
        :func:`_guard_rate` against ``kappa`` (when set) plus round-off slack."""
        return _guard_rate(self.gamma1_at(t) + self.gamma2_at(x), _rate_ceiling(self.kappa), t, x)

    def with_kappa(self, kappa: float) -> "GammaPair":
        if not math.isfinite(kappa) or kappa <= 0.0:
            raise ParameterError(f"kappa must be finite and positive, got {kappa}")
        return replace(self, kappa=kappa)


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
    beta = threshold.beta
    beta_prime = threshold.beta_prime

    def gamma1(t: float) -> float:
        return -(alpha(beta(t)) - g) * beta_prime(t)

    def gamma2(x: float) -> float:
        a = alpha(x)
        return 0.5 * (alpha_prime(x) + a * a - g * g)

    return GammaPair(gamma1=gamma1, gamma2=gamma2, reference_drift=g)


def shift_gamma_pair(pair: GammaPair, k1: float, k2: float) -> GammaPair:
    """Shift the effective rates down by constants ``(k1, k2)``.

    The caller asserts ``k1 <= inf gamma1`` and ``k2 <= inf gamma2`` over the
    ranges the sampler will visit (runtime guards catch violations).  ``kappa``
    shrinks by ``k1 + k2``; shifting an attached bound to a non-positive value
    is rejected.
    """
    for name, k in (("k1", k1), ("k2", k2)):
        if not math.isfinite(k):
            raise ParameterError(f"{name} must be finite, got {k}")
    kappa = pair.kappa
    if kappa is not None:
        kappa = kappa - (k1 + k2)
        if kappa <= 0.0:
            raise ParameterError(
                f"shift (k1={k1}, k2={k2}) would reduce kappa to {kappa} <= 0"
            )
    return replace(pair, shift1=pair.shift1 + k1, shift2=pair.shift2 + k2, kappa=kappa)


def estimate_kappa(
    pair: GammaPair,
    t_max: float,
    x_lo: float,
    x_hi: float,
    n_grid: int = 2001,
) -> float:
    """Grid estimate of an upper bound for the effective rate sum.

    Returns ``(1 + KAPPA_MARGIN) * (max gamma1_at + max gamma2_at)`` over
    uniform grids on ``[0, t_max]`` and ``[x_lo, x_hi]``.  The sum of the two
    maxima bounds the maximum of the sum because the rates are separable.  A
    user-supplied analytic bound always beats this estimate; the margin only
    cushions grid undershoot, it is not a proof.
    """
    if not (t_max > 0.0 and math.isfinite(t_max)):
        raise ParameterError(f"t_max must be positive and finite, got {t_max}")
    if not (x_lo < x_hi and math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise ParameterError(f"need finite x_lo < x_hi, got [{x_lo}, {x_hi}]")
    if n_grid < 2:
        raise ParameterError(f"n_grid must be >= 2, got {n_grid}")
    g1 = np.array([pair.gamma1_at(t) for t in np.linspace(0.0, t_max, n_grid)])
    g2 = np.array([pair.gamma2_at(x) for x in np.linspace(x_lo, x_hi, n_grid)])
    if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
        raise DomainError("gamma evaluation produced non-finite values on the grid")
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
    Problems with analytic transforms should supply them directly.
    """
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
