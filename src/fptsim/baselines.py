"""Grid-based passage-time schemes used as accuracy baselines.

Both schemes integrate ``dX = alpha(X) dt + dW`` with the Euler-Maruyama
recursion on a fixed grid of step ``delta`` and report the first grid time at
which the path is at or past the threshold.  The improved variant adds the
classical Brownian-bridge correction: when neither endpoint of a step has
crossed, the bridge over the step crosses a (locally linear) threshold with
probability ``exp(-2 * d1 * d2 / delta)`` where ``d1``/``d2`` are the signed
endpoint gaps, and a detected bridge crossing is reported at the step
midpoint.

Grid detection systematically overshoots the true passage time (crossings
inside a step are missed or reported late), so both schemes carry a positive
mean bias that shrinks with ``delta``; the bridge correction removes the
dominant part of it.  Paths that never cross before the horizon return an
infinite, non-finite draw.

The recursion is written twice, once per path and once per batch.  One
per-path walk serves :func:`euler_fpt`, :func:`improved_euler_fpt` and
:func:`coupled_euler_pair`; it draws each path from its own generator, which
gives :func:`grid_batch` its per-index substreams and is the test reference
for the batch kernel.  :func:`coupled_grid_times` runs whole chunks of paths
as arrays, for sample sizes (around 10^6 paths) where a Python loop per path
is too slow.

The per-path walk takes its normals, and a bridge walk its crossing
uniforms, from :func:`fptsim.rng.block_stream`, which draws each block by one
numpy call and converts it to floats a slice at a time.  A bridge walk
interleaves both streams on one generator, so both keep blocks of 512.  A
plain walk's normals, the generator's only consumer, come in blocks growing
from 16 to 512: the same values, but the walk leaves its generator after the
last block it used, so a generator shared by several plain walks ends in
another state than under fixed blocks (batch paths have their own substreams).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bm_fpt import FptDraw, _draw
from .errors import ParameterError
from .model import Threshold, UnitDiffusionSDE
from .rng import block_stream, sample_many, substream

__all__ = [
    "GridScheme",
    "bridge_crossing_probability",
    "euler_fpt",
    "improved_euler_fpt",
    "coupled_euler_pair",
    "coupled_grid_times",
    "grid_batch",
]

_BLOCK = 512
_FIRST_BLOCK = 16
_SCHEMES = ("euler", "improved_euler")


@dataclass(frozen=True)
class GridScheme:
    """Grid configuration: step ``delta``, horizon ``T`` and scheme variant."""

    delta: float
    horizon: float
    scheme: str = "euler"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ParameterError(f"delta must be positive, got {self.delta}")
        if not (math.isfinite(self.horizon) and self.horizon >= self.delta):
            raise ParameterError(
                f"horizon must be >= delta, got horizon={self.horizon}, delta={self.delta}"
            )
        if self.scheme not in _SCHEMES:
            raise ParameterError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")


def bridge_crossing_probability(d1: float, d2: float, delta: float) -> float:
    """Probability that a Brownian bridge with endpoint gaps ``d1``, ``d2``
    (same side, both >= 0) touches the threshold within a step of length
    ``delta``: ``exp(-2*d1*d2/delta)``."""
    if d1 < 0.0 or d2 < 0.0:
        raise ParameterError(f"gaps must be non-negative, got d1={d1}, d2={d2}")
    if not delta > 0.0:
        raise ParameterError(f"delta must be positive, got {delta}")
    return math.exp(-2.0 * d1 * d2 / delta)


def _step_count(delta: float, horizon: float) -> int:
    return int(math.ceil(horizon / delta - 1e-12))


def _walk(
    sde: UnitDiffusionSDE,
    th: Threshold,
    g: GridScheme,
    rng: np.random.Generator,
    *,
    plain: bool = True,
    bridge: bool = True,
) -> tuple[float, float]:
    """(plain, improved) passage times along one Euler path.

    The plain detector fires at the first grid time (from 0) with the path at
    or past the threshold.  The improved detector fires there too or, earlier,
    at the midpoint of a step whose bridge crosses, testing one uniform per
    step until it fires.  Without ``bridge`` it draws no uniforms and equals
    the plain time.  With ``plain`` unset the walk stops at the improved
    time, so a plain time not reached by then reads ``inf``.  A detector that
    does not fire before the horizon reports ``inf``.
    """
    sign = th.orientation.sign
    alpha = sde.alpha
    beta = th.beta
    delta = g.delta
    gap = sign * (beta(0.0) - sde.x0)
    if gap <= 0.0:
        return 0.0, 0.0
    sqrt_dt = math.sqrt(delta)
    # only a walk without uniforms may grow its normal blocks (module docstring)
    first = None if bridge else _FIRST_BLOCK
    normal = block_stream(rng.standard_normal, _BLOCK, _first=first)
    uniform = block_stream(rng.random, _BLOCK) if bridge else None

    x = sde.x0
    improved = math.inf
    for i in range(1, _step_count(delta, g.horizon) + 1):
        x = x + alpha(x) * delta + sqrt_dt * normal()
        t = i * delta
        gap_new = sign * (beta(t) - x)
        if gap_new <= 0.0:
            return t, min(improved, t)
        if bridge and uniform() < math.exp(-2.0 * gap * gap_new / delta):
            improved = t - 0.5 * delta
            if not plain:
                break
            bridge = False  # the improved detector has fired
        gap = gap_new
    return math.inf, improved


def euler_fpt(
    sde: UnitDiffusionSDE,
    th: Threshold,
    g: GridScheme,
    rng: np.random.Generator,
) -> FptDraw:
    """First grid time with the Euler path at or past the threshold.

    Crossing is also checked at time 0 (start already at or past the
    threshold returns time 0).  No crossing before the horizon returns an
    infinite, non-finite draw.
    """
    return _draw(_walk(sde, th, g, rng, bridge=False)[0])


def improved_euler_fpt(
    sde: UnitDiffusionSDE,
    th: Threshold,
    g: GridScheme,
    rng: np.random.Generator,
) -> FptDraw:
    """Euler scheme with the Brownian-bridge crossing test on each step.

    A direct endpoint crossing returns the grid time; otherwise a bridge
    crossing is declared with probability ``exp(-2*d1*d2/delta)`` and
    reported at the step midpoint.
    """
    return _draw(_walk(sde, th, g, rng, plain=False)[1])


def coupled_euler_pair(
    sde: UnitDiffusionSDE,
    th: Threshold,
    g: GridScheme,
    rng: np.random.Generator,
) -> tuple[FptDraw, FptDraw]:
    """(plain, improved) passage times along one shared Euler trajectory.

    Both detectors watch the same path, so the improved time never exceeds
    the plain time: a bridge detection fires strictly inside a step while the
    plain detector can only fire at a later grid point.
    """
    plain, improved = _walk(sde, th, g, rng)
    return _draw(plain), _draw(improved)


def grid_batch(
    sde: UnitDiffusionSDE,
    th: Threshold,
    g: GridScheme,
    n: int,
    master_seed: int,
    *,
    key_prefix: tuple[int, ...] = (),
) -> list[FptDraw]:
    """Draw ``n`` grid-scheme passage times on per-index substreams."""
    fpt = euler_fpt if g.scheme == "euler" else improved_euler_fpt

    def draw(rng: np.random.Generator) -> FptDraw:
        return fpt(sde, th, g, rng)

    return sample_many(draw, n, master_seed, key_prefix=key_prefix)


def coupled_grid_times(
    sde: UnitDiffusionSDE,
    th: Threshold,
    g: GridScheme,
    n: int,
    master_seed: int,
    *,
    key_prefix: tuple[int, ...] = (),
    chunk: int = 1 << 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``(plain, improved)`` passage times of ``n`` coupled paths.

    Semantically a batched :func:`coupled_euler_pair`: both detectors watch
    the same Euler trajectories (shared increments, shared crossing
    uniforms), so ``improved <= plain`` elementwise; entries are ``+inf``
    where a detector does not fire before the horizon.  ``g.scheme`` is
    ignored since both schemes are always produced.

    Paths are simulated in fixed-size chunks, chunk ``c`` drawing from
    substream ``(*key_prefix, c)``; the output is a pure function of
    ``(n, master_seed, key_prefix, chunk)``.  The drift callables must be
    numpy-polymorphic.  The draw order differs from the per-path functions,
    so results for a given seed do not match them pathwise, only in law.
    """
    if n < 0:
        raise ParameterError(f"n must be non-negative, got {n}")
    if chunk < 1:
        raise ParameterError(f"chunk must be >= 1, got {chunk}")
    sign = th.orientation.sign
    alpha = sde.alpha
    beta = th.beta
    delta = g.delta
    sqrt_dt = math.sqrt(delta)
    steps = _step_count(delta, g.horizon)
    prefix = tuple(int(k) for k in key_prefix)

    plain = np.full(n, math.inf)
    improved = np.full(n, math.inf)
    if sign * (beta(0.0) - sde.x0) <= 0.0:
        plain[:] = 0.0
        improved[:] = 0.0
        return plain, improved

    for c in range(math.ceil(n / chunk)):
        lo = c * chunk
        m = min(chunk, n - lo)
        rng = substream(master_seed, *prefix, c)
        t_plain = np.full(m, math.inf)
        t_improved = np.full(m, math.inf)
        alive = np.arange(m)
        x = np.full(m, float(sde.x0))
        gap = np.full(m, sign * (beta(0.0) - sde.x0))
        imp_open = np.ones(m, dtype=bool)
        for i in range(1, steps + 1):
            z = rng.standard_normal(alive.size)
            u = rng.random(alive.size)
            x = x + alpha(x) * delta + sqrt_dt * z
            t = i * delta
            gap_new = sign * (beta(t) - x)
            crossed = gap_new <= 0.0
            # exp argument is <= 0 exactly where not crossed; mask the rest
            # to -inf so the bridge probability is 0 without overflow
            log_p = np.where(crossed, -math.inf, (-2.0 / delta) * gap * gap_new)
            fire = imp_open & ~crossed & (u < np.exp(log_p))
            t_improved[alive[imp_open & crossed]] = t
            t_improved[alive[fire]] = t - 0.5 * delta
            t_plain[alive[crossed]] = t
            keep = ~crossed
            if not keep.all():
                alive = alive[keep]
                x = x[keep]
                gap_new = gap_new[keep]
                imp_open = imp_open[keep] & ~fire[keep]
            else:
                imp_open = imp_open & ~fire
            gap = gap_new
            if alive.size == 0:
                break
        plain[lo : lo + m] = t_plain
        improved[lo : lo + m] = t_improved
    return plain, improved
