"""First-passage-time samplers for standard Brownian motion.

All samplers are written in the frame where the Brownian motion starts at 0;
callers translate their own start point into the threshold.  Three threshold
shapes are covered:

* constant level ``b > 0``: the reflection principle gives
  ``P(tau <= t) = 2 Phi(-b / sqrt(t))``, so ``tau = (b / G)^2`` for a standard
  normal ``G``;
* line ``a t + b`` with ``b > 0``: for ``a < 0`` the hitting time is inverse
  Gaussian ``IG(-b/a, b^2)``; for ``a > 0`` it is infinite with probability
  ``1 - exp(-2 a b)`` and ``IG(b/a, b^2)`` otherwise; ``a = 0`` reduces to the
  constant case;
* smooth non-linear thresholds ("curvy"): an iteration that repeatedly draws
  the exact passage time of a tilted line through the current gap.  With gap
  ``H`` and line slope ``r <= inf beta'``, one draws ``G`` ~ line-FPT(r, H)
  and updates ``T <- T + G``, ``H <- beta(T+G) - beta(T) - r G`` (the new gap
  between the hit point and the threshold, non-negative by the slope bound),
  stopping when ``H <= epsilon`` or ``T`` exceeds the horizon.  Every iterate
  is an exact passage time to a piecewise-linear lower approximation, so the
  returned time under-approximates and converges as ``epsilon -> 0``.
  Thresholds the process approaches from above are reflected through
  :meth:`fptsim.model.Threshold.proposal_frame`, the one place that maps a
  threshold into the frame of the line iteration.  A final gap below zero
  means a line crossed the threshold, so a stated slope bound was false;
  the iteration then raises :class:`fptsim.errors.AssumptionViolation`.

The line draws of this module go through one core, :func:`_linear_time`,
which takes its randomness from two scalar streams (zero-argument callables
returning plain floats, such as :func:`fptsim.rng.block_stream`): a standard
normal stream and a uniform stream.  Its Wald draws use the Michael-Schucany-Haas
transform, the algorithm of numpy's ``Generator.wald``: one normal, then one
uniform.  The curvy iteration carries ``beta(T)`` from one step to the next,
so each line draw evaluates the threshold once and makes no numpy call; a
caller that already holds streams (the exact sampler) hands them in.

Returned times of ``sample_fpt_curvy`` equal the horizon when the iteration
was censored; callers that need to distinguish censoring compare against the
horizon they passed in.

No sampler here needs scipy: only the two CDF test oracles,
:func:`inverse_gaussian_cdf` and :func:`constant_level_cdf`, load
``scipy.special`` (``ndtr``, ``log_ndtr``), on their first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AssumptionViolation, ParameterError
from .model import Orientation, Threshold, _fill
from .rng import block_stream

__all__ = [
    "FptDraw",
    "CurvyParams",
    "sample_inverse_gaussian",
    "sample_fpt_constant",
    "sample_fpt_linear",
    "sample_fpt_curvy",
    "inverse_gaussian_cdf",
    "constant_level_cdf",
    "linear_hit_probability",
]

#: Values per block of the streams the curvy iteration builds for itself.
_LINE_BLOCK = 16
#: Relative round-off allowed below zero in the final gap of the curvy iteration.
_OVERSHOOT_TOL = 1e-12


@dataclass(frozen=True)
class FptDraw:
    """One first-passage draw.

    ``finite`` is true exactly when ``time < inf``; censored draws from
    horizon-capped samplers are finite with ``time`` equal to the horizon.
    ``proposals`` counts proposal attempts consumed (for rejection samplers).
    ``clock_events`` counts inner loop steps: the thinning clock events of an
    exact draw, or the line draws of one curvy iteration.  ``line_draws``
    counts, for an exact draw, the line draws its curved proposals made (the
    sum of their ``clock_events``); it stays 0 for linear proposals.
    """

    time: float
    finite: bool
    proposals: int = 1
    clock_events: int = 0
    line_draws: int = 0

    def __post_init__(self) -> None:
        if self.finite != (self.time < math.inf):
            raise ParameterError(
                f"finite={self.finite} inconsistent with time={self.time}"
            )
        if self.finite and not (self.time >= 0.0):
            raise ParameterError(f"time must be >= 0, got {self.time}")
        if self.proposals < 0 or self.clock_events < 0 or self.line_draws < 0:
            raise ParameterError("counters must be non-negative")


def _draw(time: float, proposals: int = 1, clock_events: int = 0, line_draws: int = 0) -> FptDraw:
    """An :class:`FptDraw` from a sampler's own values, not re-checked:
    ``time`` is a float ``>= 0`` or ``inf`` and the counts are non-negative."""
    return _fill(FptDraw, {"time": time, "finite": time < math.inf, "proposals": proposals,
                           "clock_events": clock_events, "line_draws": line_draws})


#: Default stop gap of the curvy iteration.
CURVY_EPSILON = 2.0**-4
#: Default horizon of the curvy iteration.
CURVY_HORIZON = 50.0


@dataclass(frozen=True)
class CurvyParams:
    """Parameters of the curvy-threshold iteration.

    ``r`` is the tilted-line slope in the proposal frame the iteration runs
    in (:meth:`fptsim.model.Threshold.proposal_frame`: reflected for
    thresholds approached from above, tilted by the reference drift of the
    exact sampler); it must not exceed the frame's ``inf_slope``.
    ``epsilon`` is the gap at which the iteration stops; ``horizon`` censors
    non-convergent runs.
    """

    epsilon: float
    r: float
    horizon: float = CURVY_HORIZON

    def __post_init__(self) -> None:
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if not math.isfinite(self.r):
            raise ParameterError(f"r must be finite, got {self.r}")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ParameterError(f"horizon must be positive, got {self.horizon}")


def sample_inverse_gaussian(mu: float, lam: float, rng: np.random.Generator) -> float:
    """Draw from the inverse Gaussian law with mean ``mu`` and shape ``lam``."""
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ParameterError(f"mu must be positive and finite, got {mu}")
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ParameterError(f"lam must be positive and finite, got {lam}")
    return _wald(mu, lam, rng.standard_normal, rng.random)


def inverse_gaussian_cdf(t, mu: float, lam: float):
    """CDF of ``IG(mu, lam)``, vectorised in ``t`` (test oracle).

    ``F(t) = Phi(z (t/mu - 1)) + exp(2 lam / mu) Phi(-z (t/mu + 1))`` with
    ``z = sqrt(lam / t)``; the second term is evaluated in log space to avoid
    overflow.
    """
    from scipy.special import log_ndtr, ndtr

    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    tp = t[pos]
    z = np.sqrt(lam / tp)
    out[pos] = ndtr(z * (tp / mu - 1.0)) + np.exp(
        2.0 * lam / mu + log_ndtr(-z * (tp / mu + 1.0))
    )
    return np.clip(out, 0.0, 1.0)


def constant_level_cdf(t, level: float):
    """CDF of the Brownian passage time to a constant level (test oracle)."""
    from scipy.special import ndtr

    if level < 0.0:
        raise ParameterError(f"level must be >= 0, got {level}")
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = 2.0 * ndtr(-level / np.sqrt(t[pos]))
    if level == 0.0:
        out[t >= 0.0] = 1.0
    return out


def linear_hit_probability(a: float, b: float) -> float:
    """Probability that Brownian motion ever reaches the line ``a t + b``."""
    if not b > 0.0:
        raise ParameterError(f"intercept b must be positive, got {b}")
    if a <= 0.0:
        return 1.0
    return math.exp(-2.0 * a * b)


def sample_fpt_constant(level: float, rng: np.random.Generator) -> FptDraw:
    """Passage time of Brownian motion from 0 to a constant ``level >= 0``."""
    if not (level >= 0.0 and math.isfinite(level)):
        raise ParameterError(f"level must be >= 0 and finite, got {level}")
    if level == 0.0:
        return FptDraw(time=0.0, finite=True)
    return FptDraw(time=_linear_time(0.0, level, rng.standard_normal, rng.random), finite=True)


def _wald(
    mu: float, lam: float, normal: Callable[[], float], uniform: Callable[[], float]
) -> float:
    """Inverse Gaussian ``IG(mu, lam)`` draw by the Michael-Schucany-Haas
    transform: one normal, then one uniform.

    The smaller root ``x`` of the transform is computed as
    ``2 lam mu / (2 lam + y + sqrt(y (y + 4 lam)))`` with ``y = mu z^2``,
    which equals ``mu + mu/(2 lam) (y - sqrt(y^2 + 4 lam y))`` but has no
    cancellation, so it never rounds below zero; the draw is ``x`` with
    probability ``mu / (mu + x)`` and ``mu^2 / x`` otherwise.
    """
    z = normal()
    y = mu * z * z
    two_lam = lam + lam
    x = two_lam * mu / (two_lam + y + math.sqrt(y * (y + two_lam + two_lam)))
    if uniform() <= mu / (mu + x):
        return x
    return mu * mu / x


def _linear_time(
    a: float, b: float, normal: Callable[[], float], uniform: Callable[[], float]
) -> float:
    """Passage time of Brownian motion from 0 to the line ``a t + b``, ``b > 0``.

    Returns ``inf`` for a non-hitting path.  A flat line draws normals until
    one is nonzero; a rising line draws its hit uniform before the Wald time.
    """
    if a < 0.0:
        return _wald(-b / a, b * b, normal, uniform)
    if a == 0.0:
        z = normal()
        while z == 0.0:
            z = normal()
        return (b / z) ** 2
    if uniform() < math.exp(-2.0 * a * b):
        return _wald(b / a, b * b, normal, uniform)
    return math.inf


def sample_fpt_linear(a: float, b: float, rng: np.random.Generator) -> FptDraw:
    """Passage time of Brownian motion from 0 to the line ``a t + b``, ``b > 0``."""
    if not (b > 0.0 and math.isfinite(b)):
        raise ParameterError(f"intercept b must be positive and finite, got {b}")
    if not math.isfinite(a):
        raise ParameterError(f"slope a must be finite, got {a}")
    t = _linear_time(a, b, rng.standard_normal, rng.random)
    if t == math.inf:
        return FptDraw(time=math.inf, finite=False)
    return FptDraw(time=t, finite=True)


def sample_fpt_curvy(
    threshold: Threshold,
    params: CurvyParams,
    rng: np.random.Generator,
    *,
    normal: Callable[[], float] | None = None,
    uniform: Callable[[], float] | None = None,
) -> FptDraw:
    """Passage time of Brownian motion from 0 to a smooth threshold.

    The threshold is given in the Brownian frame (process starts at 0).
    Thresholds with ``Orientation.BELOW_START`` are reflected by their
    :meth:`~fptsim.model.Threshold.proposal_frame` and the above-start
    iteration runs on ``-beta``; ``params.r`` always refers to that frame.
    The returned time is ``min(T, horizon)`` with ``clock_events`` equal to
    the number of line draws consumed; a returned time equal to the horizon
    means the run was censored.  A final gap below
    ``-1e-12 * max(1, |beta(T)|)`` (more than round-off) means a line
    overshot the threshold, and raises :class:`AssumptionViolation`.

    The line draws take their normals and uniforms from the scalar streams
    ``normal`` and ``uniform`` when both are given (``rng`` is then unused),
    and otherwise from block streams of 16 values built on ``rng``.
    """
    if (normal is None) != (uniform is None):
        raise ParameterError("pass both the normal and the uniform stream, or neither")
    if threshold.orientation is Orientation.BELOW_START:
        threshold = threshold.proposal_frame()
    beta = threshold.beta
    b0 = beta(0.0)
    if not (b0 > 0.0 and math.isfinite(b0)):
        raise ParameterError(
            f"threshold must start strictly away from the process, got gap {b0}"
        )
    r = params.r
    if threshold.inf_slope is not None and r > threshold.inf_slope + 1e-12:
        raise ParameterError(
            f"line slope r={r} exceeds the threshold slope infimum "
            f"{threshold.inf_slope}; the iteration would overshoot"
        )
    epsilon = params.epsilon
    horizon = params.horizon
    if b0 <= epsilon:
        return _draw(0.0)
    if normal is None:
        normal = block_stream(rng.standard_normal, _LINE_BLOCK)
        uniform = block_stream(rng.random, _LINE_BLOCK)
    linear_time = _linear_time
    T = 0.0
    beta_T = b0
    H = b0
    draws = 0
    while True:
        g = linear_time(r, H, normal, uniform)
        draws += 1
        if g == math.inf:
            return _draw(horizon, 1, draws)
        T += g
        beta_next = beta(T)
        H = beta_next - beta_T - r * g
        beta_T = beta_next
        if H <= epsilon or T >= horizon:
            if H < 0.0 and H < -_OVERSHOOT_TOL * max(1.0, abs(beta_T)):
                raise AssumptionViolation(
                    f"line of slope r={r} overshot the threshold at T={T} (gap {H}); "
                    "the threshold's inf_slope is not a lower bound of its slope"
                )
            return _draw(min(T, horizon), 1, draws)
