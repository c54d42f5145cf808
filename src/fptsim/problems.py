"""Ready-made threshold problems and the drift/threshold registries.

``example1_problem`` is the sinusoidal-drift / falling-line benchmark whose
acceptance rate has the closed form ``exp(A(x0) - A(beta(0)))``;
``example2_problem`` is the same drift against a decaying-exponential
threshold, which exercises the iterative curvy proposal sampler and
measures against Brownian motion with the largest admissible constant drift
(see :func:`_space_rate_floor`).  The
registries back the ``sample`` experiment of the command-line runner, letting
configs name a drift and a threshold and have a samplable problem assembled
with a numerically estimated thinning bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from typing import Callable

import numpy as np

from .bm_fpt import CURVY_EPSILON, CURVY_HORIZON, CurvyParams
from .errors import ConfigurationError, DomainError, ParameterError
from .exact import ExactProblem
from .model import (
    Threshold,
    UnitDiffusionSDE,
    estimate_kappa,
    linear_threshold,
    make_gamma_pair,
)

__all__ = [
    "example1_problem",
    "example1_kappa",
    "example2_problem",
    "example2_kappa",
    "sinusoidal_sde",
    "exponential_threshold",
    "DRIFT_REGISTRY",
    "THRESHOLD_REGISTRY",
    "build_custom_problem",
]


def sinusoidal_sde(K: float = 1.6, x0: float = 0.0) -> UnitDiffusionSDE:
    """Unit-diffusion SDE with drift ``K + sin(x)`` started at ``x0``.

    The callables evaluate numpy arrays elementwise and anything else with
    :mod:`math`, so the scalar samplers stay on plain floats.
    """
    if not math.isfinite(K):
        raise ParameterError(f"K must be finite, got {K}")

    def alpha(x):
        return K + (np.sin(x) if isinstance(x, np.ndarray) else math.sin(x))

    def alpha_prime(x):
        return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)

    def A(x):
        return K * x - (np.cos(x) if isinstance(x, np.ndarray) else math.cos(x))

    return UnitDiffusionSDE(alpha=alpha, alpha_prime=alpha_prime, A=A, x0=x0)


def example1_kappa(K: float = 1.6, a: float = -1.0) -> float:
    """Thinning bound for the sinusoidal drift against the line ``a*t + b``.

    ``gamma1 = -a * (K + sin(beta(t))) <= -a * (K + 1)`` for ``a < 0`` and
    ``gamma2 = ((K + sin x)^2 + cos x) / 2 <= ((K + 1)^2 + 1) / 2`` once
    ``K >= 1``.  The rates are non-negative when ``|a| * (K - 1)``, the
    least ``gamma1``, plus :func:`_space_rate_floor` is, which fails for
    ``K`` near 1 (``gamma2`` dips to -0.32 at ``K = 1``); such a ``K`` is
    refused with :class:`ParameterError` before any draw.
    """
    if not a < 0.0:
        raise ParameterError(f"the bound requires a falling line (a < 0), got a={a}")
    if not K >= 1.0:
        raise ParameterError(f"the rate bound needs K >= 1, got K={K}")
    space = _space_rate_bound(K)
    least = -a * (K - 1.0) + _space_rate_floor(K)
    if least < 0.0:
        raise ParameterError(f"the rates go negative for K={K}, a={a}: "
                             f"|a|*(K - 1) + floor(K) = {least}")
    return -a * (K + 1.0) + space


def _space_rate_bound(K: float) -> float:
    """``((K + 1)^2 + 1) / 2`` bounds ``gamma2`` of the drift ``K + sin(x)``."""
    try:
        return ((K + 1.0) ** 2 + 1.0) / 2.0
    except OverflowError:
        raise ParameterError(f"K={K} is too large: (K + 1)^2 overflows") from None


#: Step of the grid over one period in :func:`_space_rate_floor`, and
#: ``sin`` and ``cos`` on its points, made once: they cost more than the rest.
_FLOOR_STEP = 2.0 * math.pi / 1024
_FLOOR_SIN, _FLOOR_COS = (np.sin(_FLOOR_STEP * np.arange(1025)),
                          np.cos(_FLOOR_STEP * np.arange(1025)))
_FLOOR_SIN.flags.writeable = _FLOOR_COS.flags.writeable = False
#: Rounding margin of :func:`_space_rate_floor`, relative to ``((|K| + 1)^2 + 1) / 2``.
_FLOOR_ROUNDING = 32.0 * sys.float_info.epsilon


def _space_rate_floor(K: float) -> float:
    """Certified lower bound ``floor(K)`` of ``f(x) = ((K + sin x)^2 + cos x) / 2``,
    the space rate of the drift ``K + sin(x)`` against plain Brownian motion.

    ``f`` has period ``2*pi``.  On a grid of step ``h`` over one period, ``f``
    lies at most ``max|f''| * h^2 / 8`` below the chord of each cell, and
    ``|f''| = |-K sin x + cos 2x - cos(x) / 2| <= |K| + 3/2``; so the grid
    minimum less that margin bounds ``f``.  A further margin relative to
    ``((|K| + 1)^2 + 1) / 2`` covers rounding: for large ``K`` the rate
    ``(alpha^2 - g^2) / 2`` at ``g^2 = 2 * floor(K)`` cancels down from
    values of that size.  A ``K`` whose ``(K + 1)^2`` overflows is refused
    by :func:`_space_rate_bound` first.
    """
    scale = _space_rate_bound(abs(K))
    alpha = K + _FLOOR_SIN
    grid_min = 0.5 * float((alpha * alpha + _FLOOR_COS).min())
    return grid_min - (abs(K) + 1.5) * _FLOOR_STEP**2 / 8.0 - _FLOOR_ROUNDING * scale


def example1_problem(
    K: float = 1.6,
    a: float = -1.0,
    b: float = 0.5,
    x0: float = 0.0,
    max_proposals: int = 10**6,
) -> ExactProblem:
    """Sinusoidal drift ``K + sin(x)`` vs the falling line ``a*t + b``; where
    :func:`_space_rate_floor` is non-negative the space rate alone is thinned,
    under ``space_kappa =`` :func:`_space_rate_bound`."""
    if not b > x0:
        raise ParameterError(f"threshold must start above x0, got b={b}, x0={x0}")
    sde = sinusoidal_sde(K, x0)
    threshold = linear_threshold(a, b)
    gammas = make_gamma_pair(sde, threshold).with_kappa(example1_kappa(K, a))
    if _space_rate_floor(K) >= 0.0:
        gammas = replace(gammas, space_kappa=_space_rate_bound(K))
    return ExactProblem(sde=sde, threshold=threshold, gammas=gammas, max_proposals=max_proposals)


def exponential_threshold(a: float = 1.0, b: float = 1.0) -> Threshold:
    """Threshold ``beta(t) = a * exp(-b*t)`` with slope bounds.

    For ``b >= 0`` the slope ``beta' = -a*b*exp(-b*t)`` runs from ``-a*b``
    to 0 and the bounds are ``min/max(-a*b, 0)``, exact.  For ``b < 0`` it
    grows without bound away from 0, so the bound on that side is ``None``
    (a curvy proposal then refuses the threshold) and the other stays 0.
    Like the drift of :func:`sinusoidal_sde`, ``beta`` and ``beta'`` evaluate
    numpy arrays elementwise and anything else with :mod:`math`.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ParameterError(f"a and b must be finite, got a={a}, b={b}")
    rate = a * b

    def beta(t):
        return a * (np.exp(-b * t) if isinstance(t, np.ndarray) else math.exp(-b * t))

    def beta_prime(t):
        return -rate * (np.exp(-b * t) if isinstance(t, np.ndarray) else math.exp(-b * t))

    inf_slope, sup_slope = min(-rate, 0.0), max(-rate, 0.0)
    if b < 0.0 and rate > 0.0:
        inf_slope = None
    elif b < 0.0 and rate < 0.0:
        sup_slope = None
    return Threshold(
        beta=beta,
        beta_prime=beta_prime,
        inf_slope=inf_slope,
        sup_slope=sup_slope,
    )


def _example2_bounds(K: float, a: float, b: float) -> tuple[float, float, float]:
    """The reference drift ``g*``, the thinning bound of Example 2 (see
    :func:`example2_kappa`) and its space-rate part, after the checks on
    ``a``, ``b`` and ``K``."""
    if not (a > 0.0 and b > 0.0 and K >= 1.0):
        raise ParameterError(
            f"the rates need a > 0, b > 0, K >= 1, got a={a}, b={b}, K={K}"
        )
    space = _space_rate_bound(K)
    floor = _space_rate_floor(K)
    if floor < 0.0:
        raise ParameterError(f"the space rate goes negative for K={K}: floor(K) = {floor}")
    g = math.sqrt(2.0 * floor)
    kappa1 = a * b * (K + (math.sin(a) if a <= math.pi / 2.0 else 1.0) - g)
    return (g, kappa1 + space - g * g / 2.0 + _FLOOR_ROUNDING * space,
            space - g * g / 2.0 + _FLOOR_ROUNDING * space)


def example2_kappa(K: float = 1.6, a: float = 1.0, b: float = 1.0) -> float:
    """Thinning bound for the sinusoidal drift against ``a * exp(-b*t)``,
    measured against Brownian motion with drift ``g* = sqrt(2 * floor(K))``
    (:func:`_space_rate_floor`).

    ``g*`` is the largest constant drift that keeps
    ``gamma2 = ((K + sin x)^2 + cos x - g*^2) / 2`` non-negative, and a
    ``K`` whose floor is negative (below about 1.577) is refused with
    :class:`ParameterError`.  ``gamma1(t) = b*s*(K + sin s - g*)`` with
    ``s = a*exp(-b*t)`` is non-negative, as ``g* <= K - 1``.  For
    ``0 < a <= pi/2`` the map ``s -> s*(K + sin s - g*)`` is increasing on
    ``(0, a]``, so ``gamma1`` peaks at ``t = 0``; otherwise the crude bound
    ``a*b*(K + 1 - g*)`` is used.  So ``kappa = a*b*(K + sin a - g*) +
    ((K + 1)^2 + 1 - g*^2) / 2``, with ``sin a`` read as 1 for ``a > pi/2``,
    plus the floor's rounding margin: for large ``K`` the rates cancel down
    from ``(K + 1)^2`` and carry its rounding error.
    """
    return _example2_bounds(K, a, b)[1]


def example2_problem(
    K: float = 1.6,
    a: float = 1.0,
    b: float = 1.0,
    x0: float = 0.0,
    epsilon: float = CURVY_EPSILON,
    horizon: float = CURVY_HORIZON,
    max_proposals: int = 10**6,
) -> ExactProblem:
    """Sinusoidal drift ``K + sin(x)`` vs the threshold ``a * exp(-b*t)``.

    Proposals are passages of Brownian motion with the drift ``g*`` of
    :func:`example2_kappa`: ``exp(A(a) - A(x0) - g*(a - x0))`` of them per
    draw, 6.5 at the defaults against 7.8 at ``g = 0``, for the same law
    (Girsanov: the tilted rates take back what the tilt adds).  The space
    rate alone is thinned, under the space part of the bound.  The curvy
    sampler runs at resolution ``epsilon``, with lines of the proposal
    frame's ``inf_slope``, ``-a*b - g*``.
    """
    if not a > x0:
        raise ParameterError(f"threshold must start above x0, got a={a}, x0={x0}")
    sde = sinusoidal_sde(K, x0)
    threshold = exponential_threshold(a, b)
    g, kappa, space_kappa = _example2_bounds(K, a, b)
    gammas = replace(make_gamma_pair(sde, threshold, g).with_kappa(kappa), space_kappa=space_kappa)
    curvy = CurvyParams(epsilon=epsilon, horizon=horizon)
    return ExactProblem(sde=sde, threshold=threshold, gammas=gammas, curvy=curvy,
                        max_proposals=max_proposals)


# --- registries backing the config-driven "sample" experiment ---------------


def _constant_sde(c: float = 0.0, x0: float = 0.0) -> UnitDiffusionSDE:
    c = float(c)
    return UnitDiffusionSDE(
        alpha=lambda x: c,
        alpha_prime=lambda x: 0.0,
        A=lambda x: c * x,
        x0=x0,
    )


DRIFT_REGISTRY: dict[str, Callable[..., UnitDiffusionSDE]] = {
    "sinusoidal": sinusoidal_sde,
    "constant": _constant_sde,
    "zero": lambda x0=0.0: _constant_sde(0.0, x0),
}

THRESHOLD_REGISTRY: dict[str, Callable[..., Threshold]] = {
    "linear": lambda a, b: linear_threshold(a, b),
    "constant": lambda level: linear_threshold(0.0, level),
    "exponential": lambda a, b: exponential_threshold(a, b),
}


def _registry_threshold(threshold: str, threshold_params: dict, epsilon: float | None) -> Threshold:
    """Build a registry threshold; refuse an ``epsilon`` for a line
    threshold, whose proposal would ignore it."""
    if threshold not in THRESHOLD_REGISTRY:
        raise ConfigurationError(
            f"unknown threshold {threshold!r}; available: {sorted(THRESHOLD_REGISTRY)}"
        )
    try:
        th = THRESHOLD_REGISTRY[threshold](**threshold_params)
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for threshold {threshold!r}: {exc}") from exc
    if epsilon is not None and th.linear is not None:
        raise ConfigurationError(f"epsilon applies to curved thresholds only; {threshold!r} is a line")
    return th


def build_custom_problem(
    drift: str,
    drift_params: dict,
    threshold: str,
    threshold_params: dict,
    x0: float = 0.0,
    epsilon: float | None = None,
    horizon: float = CURVY_HORIZON,
    max_proposals: int = 10**6,
) -> ExactProblem:
    """Assemble a problem from registry names and parameter dicts.

    ``epsilon`` sets the curvy iteration's stop gap for a curved threshold
    (``CURVY_EPSILON`` when unset); a line threshold has no such iteration
    and refuses it.  The threshold is passed from the side of ``x0``; a start
    exactly on ``beta(0)`` is refused.  The thinning bound is estimated on a
    grid spanning the threshold range padded by one sine period on each
    side, which covers the global supremum for every registered (periodic or
    constant) drift; the sampler's runtime guard still aborts if the bound
    is ever exceeded; rates that go negative on that grid are refused.
    """
    if drift not in DRIFT_REGISTRY:
        raise ConfigurationError(
            f"unknown drift {drift!r}; available: {sorted(DRIFT_REGISTRY)}"
        )
    th = _registry_threshold(threshold, threshold_params, epsilon)
    try:
        sde = DRIFT_REGISTRY[drift](x0=x0, **drift_params)
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for drift {drift!r}: {exc}") from exc

    b0 = th.beta(0.0)
    try:
        b_end = th.beta(horizon)
    except OverflowError:
        raise DomainError(f"threshold {threshold!r} overflows at the horizon {horizon}") from None
    gammas = make_gamma_pair(sde, th)
    pad = 2.0 * math.pi
    lo = min(x0, b0, b_end) - pad
    hi = max(x0, b0, b_end) + pad
    kappa = estimate_kappa(gammas, t_max=horizon, x_lo=lo, x_hi=hi)
    curvy = (None if th.linear is not None
             else CurvyParams(CURVY_EPSILON if epsilon is None else epsilon, horizon))
    return ExactProblem(sde=sde, threshold=th, gammas=gammas.with_kappa(kappa), curvy=curvy,
                        max_proposals=max_proposals)
