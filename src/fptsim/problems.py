"""Ready-made threshold problems and the drift/threshold registries.

``example1_problem`` is the sinusoidal-drift / falling-line benchmark whose
acceptance rate has the closed form ``exp(A(x0) - A(beta(0)))``;
``example2_problem`` is the same drift against a decaying-exponential
threshold, which exercises the iterative curvy proposal sampler.  The
registries back the ``sample`` experiment of the command-line runner, letting
configs name a drift and a threshold and have a samplable problem assembled
with a numerically estimated thinning bound.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .bm_fpt import CURVY_EPSILON, CURVY_HORIZON, CurvyParams
from .errors import ConfigurationError, ParameterError
from .exact import ExactProblem, Proposal, default_proposal
from .model import (
    Orientation,
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
    ``gamma2 = ((K + sin x)^2 + cos x) / 2 <= ((K + 1)^2 + 1) / 2``.
    """
    if not a < 0.0:
        raise ParameterError(f"the bound requires a falling line (a < 0), got a={a}")
    if not K >= 1.0:
        raise ParameterError(f"the rates need K >= 1 for non-negativity, got K={K}")
    return -a * (K + 1.0) + ((K + 1.0) ** 2 + 1.0) / 2.0


def example1_problem(
    K: float = 1.6,
    a: float = -1.0,
    b: float = 0.5,
    x0: float = 0.0,
    max_proposals: int = 10**6,
) -> ExactProblem:
    """Sinusoidal drift ``K + sin(x)`` vs the falling line ``a*t + b``."""
    if not b > x0:
        raise ParameterError(f"threshold must start above x0, got b={b}, x0={x0}")
    sde = sinusoidal_sde(K, x0)
    threshold = linear_threshold(a, b, Orientation.ABOVE_START)
    gammas = make_gamma_pair(sde, threshold).with_kappa(example1_kappa(K, a))
    return ExactProblem(
        sde=sde,
        threshold=threshold,
        gammas=gammas,
        proposal=default_proposal(threshold),
        max_proposals=max_proposals,
    )


def exponential_threshold(
    a: float = 1.0, b: float = 1.0, orientation: Orientation = Orientation.ABOVE_START
) -> Threshold:
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
        orientation=orientation,
        inf_slope=inf_slope,
        sup_slope=sup_slope,
    )


def example2_kappa(K: float = 1.6, a: float = 1.0, b: float = 1.0) -> float:
    """Thinning bound for the sinusoidal drift against ``a * exp(-b*t)``.

    For ``0 < a <= pi/2`` the map ``s -> s*(K + sin s)`` is increasing on
    ``(0, a]``, so ``gamma1(t) = b*s*(K + sin s)`` with ``s = a*exp(-b*t)``
    peaks at ``t = 0``; otherwise the crude bound ``a*b*(K + 1)`` is used.
    """
    if not (a > 0.0 and b > 0.0 and K >= 1.0):
        raise ParameterError(
            f"the rates need a > 0, b > 0, K >= 1, got a={a}, b={b}, K={K}"
        )
    if a <= math.pi / 2.0:
        kappa1 = a * b * (K + math.sin(a))
    else:
        kappa1 = a * b * (K + 1.0)
    return kappa1 + ((K + 1.0) ** 2 + 1.0) / 2.0


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

    Proposals use the iterative curvy sampler with tangent slope
    ``r = -a*b`` (the steepest threshold slope) and resolution ``epsilon``.
    """
    if not a > x0:
        raise ParameterError(f"threshold must start above x0, got a={a}, x0={x0}")
    sde = sinusoidal_sde(K, x0)
    threshold = exponential_threshold(a, b)
    gammas = make_gamma_pair(sde, threshold).with_kappa(example2_kappa(K, a, b))
    params = CurvyParams(epsilon=epsilon, r=-a * b, horizon=horizon)
    return ExactProblem(
        sde=sde,
        threshold=threshold,
        gammas=gammas,
        proposal=Proposal("curvy", params),
        max_proposals=max_proposals,
    )


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
    "linear": lambda a, b, orientation: linear_threshold(a, b, orientation),
    "constant": lambda level, orientation: linear_threshold(0.0, level, orientation),
    "exponential": lambda a, b, orientation: exponential_threshold(a, b, orientation),
}


def _registry_threshold(threshold: str, threshold_params: dict, epsilon: float | None) -> Threshold:
    """Build a registry threshold, above-start; refuse an ``epsilon`` for a
    line threshold, whose proposal would ignore it."""
    if threshold not in THRESHOLD_REGISTRY:
        raise ConfigurationError(
            f"unknown threshold {threshold!r}; available: {sorted(THRESHOLD_REGISTRY)}"
        )
    try:
        th = THRESHOLD_REGISTRY[threshold](orientation=Orientation.ABOVE_START, **threshold_params)
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
    and refuses it.  Orientation is inferred from the threshold start
    relative to ``x0``.  The thinning bound is estimated on a grid spanning the
    threshold range padded by one sine period on each side, which covers
    the global supremum for every registered (periodic or constant) drift;
    the sampler's runtime guard still aborts if the bound is ever exceeded.
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
    if b0 < x0:
        th = replace(th, orientation=Orientation.BELOW_START)
    elif not b0 > x0:
        raise ConfigurationError(f"threshold starts exactly at x0 = {x0}")

    gammas = make_gamma_pair(sde, th)
    pad = 2.0 * math.pi
    lo = min(x0, b0, th.beta(horizon)) - pad
    hi = max(x0, b0, th.beta(horizon)) + pad
    kappa = estimate_kappa(gammas, t_max=horizon, x_lo=lo, x_hi=hi)
    epsilon = CURVY_EPSILON if epsilon is None else epsilon
    proposal = default_proposal(th, CurvyParams(epsilon=epsilon, r=_tangent_slope(th), horizon=horizon))
    return ExactProblem(
        sde=sde,
        threshold=th,
        gammas=gammas.with_kappa(kappa),
        proposal=proposal,
        max_proposals=max_proposals,
    )


def _tangent_slope(th: Threshold) -> float:
    """Steepest admissible tangent slope for curvy proposals on ``th``: the
    ``inf_slope`` of its proposal frame (with no reference drift)."""
    slope = th.proposal_frame().inf_slope
    if slope is None:
        raise ConfigurationError("curvy proposals need a bounded threshold slope")
    return slope
