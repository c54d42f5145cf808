"""Sample summaries and distribution-comparison statistics.

Provides the two-sample and one-sample Kolmogorov-Smirnov statistics with
asymptotic p-values, moment-bias helpers for grid-scheme error measurement,
and a Gaussian kernel density estimate for plotting.  Infinite passage times
are allowed in summaries (reported through ``finite_fraction``) but must be
filtered before KS comparisons.  The KS p-values come from
:func:`_kolmogorov_sf`, a plain-``math`` port of ``scipy.special.kolmogorov``
that returns the same doubles, so no function here loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "SummaryStats",
    "summarize",
    "ks_two_sample",
    "ks_one_sample",
    "moment_bias",
    "density_curve",
]


@dataclass(frozen=True)
class SummaryStats:
    """Plain summary of one sample of passage times."""

    n: int
    finite_fraction: float
    mean: float
    variance: float
    std: float
    min: float
    max: float
    q25: float
    median: float
    q75: float

    def as_dict(self) -> dict[str, float | int]:
        return asdict(self)


def summarize(times: np.ndarray) -> SummaryStats:
    """Summarize a sample; infinities count toward ``finite_fraction`` only.

    Moments and quantiles are computed over the finite subsample (all-infinite
    samples get NaN moments).  Variance is the unbiased (n-1) estimate.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ParameterError("times must be a non-empty 1-D array")
    if np.isnan(times).any():
        raise ParameterError("times must not contain NaN")
    finite = times[np.isfinite(times)]
    n = times.size
    frac = finite.size / n
    if finite.size == 0:
        nan = float("nan")
        return SummaryStats(n, 0.0, nan, nan, nan, nan, nan, nan, nan, nan)
    var = float(np.var(finite, ddof=1)) if finite.size > 1 else 0.0
    q25, med, q75 = (float(q) for q in np.quantile(finite, [0.25, 0.5, 0.75]))
    return SummaryStats(
        n=n,
        finite_fraction=frac,
        mean=float(finite.mean()),
        variance=var,
        std=math.sqrt(var),
        min=float(finite.min()),
        max=float(finite.max()),
        q25=q25,
        median=med,
        q75=q75,
    )


def _check_finite_sample(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ParameterError(f"{name} must be a non-empty 1-D array")
    if not np.isfinite(x).all():
        raise ParameterError(f"{name} must be finite; filter censored values first")
    return x


_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: At and below this the sf is 1 (pi^2 / (8 x^2) >= 746, where exp underflows).
_SF_ONE_BELOW = math.pi / math.sqrt(746 * 8)


def _kolmogorov_sf(x: float) -> float:
    """Kolmogorov survival function ``K(x) = 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2)``.

    A step-for-step port of scipy's ``kolmogorov`` (cephes/xsf; Marsaglia,
    Tsang & Wang 2003), operations in the same order so it returns the same
    doubles: the Jacobi-theta form ``1 - sqrt(2 pi)/x * sum_k u^((2k-1)^2)``
    with ``u = exp(-pi^2 / (8 x^2))`` up to ``x = 0.82``, the alternating
    series above, each cut after its last term that counts, clipped to
    [0, 1].  NaN passes through.
    """
    if x <= _SF_ONE_BELOW:
        return 1.0
    if x <= 0.82:
        w = _SQRT_2PI / x
        logu8 = -math.pi * math.pi / (x * x)
        u = math.exp(logu8 / 8)
        if u == 0.0:
            sf = 1.0 - math.exp(logu8 / 8 + math.log(w))
        else:
            u8 = math.exp(logu8)
            sf = 1.0 - w * u * (1.0 + u8 * (1.0 + u8 * u8 * (1.0 + math.pow(u8, 3))))
    else:
        v = math.exp(-2.0 * x * x)
        v3 = math.pow(v, 3)
        sf = 2.0 * v * (1.0 - v3 * (1.0 - v3 * (v * v) * (1.0 - v3 * v3 * v)))
    return min(max(sf, 0.0), 1.0)


def ks_two_sample(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Two-sample KS statistic and asymptotic p-value.

    ``D = sup_t |F_x(t) - F_y(t)|`` evaluated over the pooled sample points;
    the p-value is the Kolmogorov survival function at
    ``D * sqrt(n*m / (n + m))``.
    """
    x = np.sort(_check_finite_sample(x, "x"))
    y = np.sort(_check_finite_sample(y, "y"))
    pooled = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, pooled, side="right") / x.size
    cdf_y = np.searchsorted(y, pooled, side="right") / y.size
    d = float(np.abs(cdf_x - cdf_y).max())
    n_eff = x.size * y.size / (x.size + y.size)
    return d, _kolmogorov_sf(d * math.sqrt(n_eff))


def ks_one_sample(x: np.ndarray, cdf) -> tuple[float, float]:
    """One-sample KS statistic against a callable CDF, asymptotic p-value."""
    x = np.sort(_check_finite_sample(x, "x"))
    n = x.size
    f = np.asarray([cdf(v) for v in x], dtype=float)
    if not np.isfinite(f).all() or (f < -1e-12).any() or (f > 1.0 + 1e-12).any():
        raise ParameterError("cdf must return values in [0, 1]")
    grid = np.arange(1, n + 1) / n
    d = float(max((grid - f).max(), (f - (grid - 1.0 / n)).max()))
    return d, _kolmogorov_sf(d * math.sqrt(n))


def moment_bias(approx: np.ndarray, exact: np.ndarray) -> tuple[float, float]:
    """First- and second-moment bias of ``approx`` relative to ``exact``.

    Returns ``(mean(approx) - mean(exact), var(approx) - var(exact))`` with
    unbiased variances; antisymmetric under swapping the arguments.
    """
    approx = _check_finite_sample(approx, "approx")
    exact = _check_finite_sample(exact, "exact")
    bias1 = float(np.mean(approx) - np.mean(exact))
    var_a = float(np.var(approx, ddof=1)) if approx.size > 1 else 0.0
    var_e = float(np.var(exact, ddof=1)) if exact.size > 1 else 0.0
    return bias1, var_a - var_e


def density_curve(
    x: np.ndarray, grid: np.ndarray, bandwidth: float | None = None
) -> np.ndarray:
    """Gaussian kernel density estimate of ``x`` evaluated on ``grid``.

    Default bandwidth is the Silverman rule of thumb
    ``0.9 * min(sd, IQR / 1.34) * n**(-1/5)``.
    """
    x = _check_finite_sample(x, "x")
    grid = np.asarray(grid, dtype=float)
    if bandwidth is None:
        sd = float(np.std(x, ddof=1)) if x.size > 1 else 0.0
        q75, q25 = np.quantile(x, [0.75, 0.25])
        iqr = float(q75 - q25)
        spread = min(sd, iqr / 1.34) if iqr > 0 else sd
        if spread <= 0:
            spread = max(sd, 1e-12)
        bandwidth = 0.9 * spread * x.size ** (-0.2)
    if not bandwidth > 0:
        raise ParameterError(f"bandwidth must be positive, got {bandwidth}")
    z = (grid[:, None] - x[None, :]) / bandwidth
    return np.exp(-0.5 * z * z).sum(axis=1) / (x.size * bandwidth * math.sqrt(2 * math.pi))
