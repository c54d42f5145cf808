"""Grid-scheme baselines: bridge correction, coupling, and law checks."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from fptsim.baselines import (
    GridScheme,
    bridge_crossing_probability,
    coupled_euler_pair,
    coupled_grid_times,
    euler_fpt,
    grid_batch,
    improved_euler_fpt,
)
from fptsim.bm_fpt import FptDraw, constant_level_cdf
from fptsim.errors import DomainError, ParameterError
from fptsim.model import Threshold, UnitDiffusionSDE, constant_threshold, linear_threshold
from fptsim.problems import example1_problem
from fptsim.rng import substream
from fptsim.stats import ks_one_sample, ks_two_sample


def _brownian() -> UnitDiffusionSDE:
    return UnitDiffusionSDE(
        alpha=lambda x: 0.0, alpha_prime=lambda x: 0.0, A=lambda x: 0.0, x0=0.0
    )


def test_grid_scheme_validation():
    with pytest.raises(ParameterError):
        GridScheme(delta=0.0, horizon=1.0)
    with pytest.raises(ParameterError):
        GridScheme(delta=0.5, horizon=0.25)
    with pytest.raises(ParameterError):
        GridScheme(delta=0.1, horizon=1.0, scheme="milstein")


def test_bridge_crossing_probability_formula():
    assert bridge_crossing_probability(0.3, 0.2, 0.5) == pytest.approx(
        math.exp(-2.0 * 0.3 * 0.2 / 0.5), rel=1e-15
    )
    assert bridge_crossing_probability(0.0, 0.4, 0.1) == 1.0
    with pytest.raises(ParameterError):
        bridge_crossing_probability(-0.1, 0.2, 0.5)
    with pytest.raises(ParameterError):
        bridge_crossing_probability(0.1, 0.2, 0.0)


def test_improved_euler_matches_brownian_constant_level_law():
    # the passage law to a constant level is heavy-tailed, so compare the
    # horizon-censored sample against the conditional law given passage
    sde = _brownian()
    th = constant_threshold(1.0)
    horizon = 64.0
    g = GridScheme(delta=2.0**-8, horizon=horizon, scheme="improved_euler")
    draws = grid_batch(sde, th, g, 4000, 7)
    x = np.array([d.time for d in draws if d.finite])
    mass = constant_level_cdf(horizon, 1.0)
    assert x.size / len(draws) == pytest.approx(mass, abs=0.02)
    d, p = ks_one_sample(x, lambda t: constant_level_cdf(t, 1.0) / mass)
    assert p > 1e-3


def test_plain_euler_is_visibly_biased_at_coarse_steps():
    sde = _brownian()
    th = constant_threshold(1.0)
    horizon = 64.0
    g = GridScheme(delta=2.0**-2, horizon=horizon, scheme="euler")
    draws = grid_batch(sde, th, g, 4000, 8)
    x = np.array([d.time for d in draws if d.finite])
    mass = constant_level_cdf(horizon, 1.0)
    d, p = ks_one_sample(x, lambda t: constant_level_cdf(t, 1.0) / mass)
    assert p < 1e-6  # discrete monitoring overshoots passage times


def test_coupled_pair_improved_never_later():
    sde = _brownian()
    th = linear_threshold(-0.5, 1.0)
    g = GridScheme(delta=2.0**-4, horizon=16.0)
    rng = np.random.default_rng(9)
    strictly_earlier = 0
    for _ in range(2000):
        plain, improved = coupled_euler_pair(sde, th, g, rng)
        assert improved.time <= plain.time + 1e-12
        if improved.time < plain.time:
            strictly_earlier += 1
    assert strictly_earlier > 0


@pytest.mark.parametrize(
    "th,horizon",
    [
        (linear_threshold(-0.5, 1.0), 16.0),
        (linear_threshold(1.0, 0.0), 2.0),
        (constant_threshold(50.0), 1.0),
    ],
    ids=["falling_line", "start_on_threshold", "censored"],
)
def test_improved_euler_is_the_improved_half_of_the_coupled_pair(th, horizon):
    sde = _brownian()
    g = GridScheme(delta=2.0**-4, horizon=horizon, scheme="improved_euler")
    for seed in range(20, 30):
        alone = improved_euler_fpt(sde, th, g, np.random.default_rng(seed))
        _, paired = coupled_euler_pair(sde, th, g, np.random.default_rng(seed))
        assert alone == paired


def test_censoring_marks_draw_non_finite():
    sde = _brownian()
    th = constant_threshold(50.0)
    g = GridScheme(delta=0.25, horizon=1.0)
    d = euler_fpt(sde, th, g, np.random.default_rng(10))
    assert not d.finite
    assert d.time == math.inf


def test_start_on_threshold_fires_at_time_zero():
    sde = _brownian()
    th = linear_threshold(1.0, 0.0)  # passes through x0
    g = GridScheme(delta=0.5, horizon=2.0)
    d = euler_fpt(sde, th, g, np.random.default_rng(11))
    assert d.finite and d.time == 0.0


def test_improved_reports_interior_hit_times():
    sde = _brownian()
    th = constant_threshold(0.05)
    g = GridScheme(delta=0.5, horizon=8.0, scheme="improved_euler")
    draws = grid_batch(sde, th, g, 400, 12)
    times = [d.time for d in draws if d.finite]
    assert any(abs(t / 0.5 - round(t / 0.5)) > 1e-9 for t in times)
    assert all(t >= 0.0 for t in times)


def test_grid_draws_equal_constructor_built_draws():
    # grid draws skip the FptDraw checks; they must hold the same fields and
    # values as checked ones, over hits at 0, at grid times, at step
    # midpoints and censored paths
    sde = _brownian()
    th = constant_threshold(0.05)
    draws = []
    for scheme in ("euler", "improved_euler"):
        g = GridScheme(delta=0.5, horizon=1.0, scheme=scheme)
        draws += grid_batch(sde, th, g, 200, 12)
        draws += coupled_euler_pair(sde, th, g, np.random.default_rng(13))
    at_start = linear_threshold(1.0, 0.0)
    draws.append(improved_euler_fpt(sde, at_start, GridScheme(0.5, 2.0), np.random.default_rng(11)))
    times = {d.time for d in draws}
    assert {0.0, 0.5, 0.25, math.inf} <= times
    for d in draws:
        checked = FptDraw(time=d.time, finite=d.time < math.inf)
        assert type(d) is FptDraw
        assert d == checked and hash(d) == hash(checked) and d._asdict() == checked._asdict()


def test_grid_batch_worker_invariance():
    """Batch entry i is the per-path draw on substream (seed, *prefix, i)."""
    sde = _brownian()
    th = constant_threshold(1.0)
    g = GridScheme(delta=0.125, horizon=8.0, scheme="improved_euler")
    assert grid_batch(sde, th, g, 40, 13) == [
        improved_euler_fpt(sde, th, g, substream(13, i)) for i in range(40)
    ]
    plain = replace(g, scheme="euler")
    assert grid_batch(sde, th, plain, 40, 13, key_prefix=(2,)) == [
        euler_fpt(sde, th, plain, substream(13, 2, i)) for i in range(40)
    ]


def test_coupled_grid_times_matches_per_path_law():
    prob = example1_problem()
    g = GridScheme(delta=2.0**-6, horizon=8.0)
    pl, im = coupled_grid_times(prob.sde, prob.threshold, g, 20_000, 7)
    rng = np.random.default_rng(14)
    pairs = [coupled_euler_pair(prob.sde, prob.threshold, g, rng) for _ in range(4000)]
    pl_ref = np.array([p.time for p, _ in pairs if p.finite])
    im_ref = np.array([i.time for _, i in pairs if i.finite])
    _, p_plain = ks_two_sample(pl[np.isfinite(pl)], pl_ref)
    _, p_improved = ks_two_sample(im[np.isfinite(im)], im_ref)
    assert p_plain > 0.01
    assert p_improved > 0.01


def test_coupled_grid_times_improved_never_later():
    prob = example1_problem()
    g = GridScheme(delta=2.0**-4, horizon=8.0)
    pl, im = coupled_grid_times(prob.sde, prob.threshold, g, 5000, 3)
    assert np.all(im <= pl + 1e-12)
    assert np.any(im < pl)  # bridge fires strictly between grid crossings


def test_coupled_grid_times_determinism_and_keying():
    sde = _brownian()
    th = constant_threshold(1.0)
    g = GridScheme(delta=0.125, horizon=8.0)
    a = coupled_grid_times(sde, th, g, 300, 5, chunk=128)
    b = coupled_grid_times(sde, th, g, 300, 5, chunk=128)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = coupled_grid_times(sde, th, g, 300, 5, key_prefix=(1,), chunk=128)
    assert not np.array_equal(a[0], c[0])


def test_coupled_grid_times_immediate_hit_and_validation():
    sde = _brownian()
    th = linear_threshold(1.0, 0.0)  # passes through x0
    g = GridScheme(delta=0.5, horizon=2.0)
    pl, im = coupled_grid_times(sde, th, g, 17, 0)
    assert np.all(pl == 0.0) and np.all(im == 0.0)
    with pytest.raises(ParameterError):
        coupled_grid_times(sde, th, g, -1, 0)
    with pytest.raises(ParameterError):
        coupled_grid_times(sde, th, g, 10, 0, chunk=0)
    empty = coupled_grid_times(_brownian(), constant_threshold(1.0), g, 0, 0)
    assert empty[0].size == 0 and empty[1].size == 0


@pytest.mark.parametrize("grid", [grid_batch, coupled_grid_times],
                         ids=["grid_batch", "coupled_grid_times"])
def test_grids_refuse_a_start_they_cannot_place(grid):
    # a threshold that is not finite at 0, or a start at +-inf, has no side
    # and gap to pass from: refused before any path, not reported censored
    g = GridScheme(delta=0.125, horizon=1.0)
    nan_level = Threshold(beta=lambda t: math.nan, beta_prime=lambda t: 0.0)
    with pytest.raises(DomainError, match=r"^beta\(0\) = nan is not finite$"):
        grid(_brownian(), nan_level, g, 3, 0)
    for x0 in (math.inf, -math.inf):
        with pytest.raises(ParameterError, match=rf"^start gap inf is not finite: x0 = {x0}, "):
            grid(replace(_brownian(), x0=x0), constant_threshold(1.0), g, 3, 0)


def test_library_drifts_accept_arrays():
    from fptsim.neuron import NeuronParams, transform_neuron

    xs = np.array([-0.3, 0.0, 0.7, 2.1])
    for sde in (example1_problem().sde, transform_neuron(NeuronParams())[0]):
        for fn in (sde.alpha, sde.alpha_prime, sde.A):
            out = np.asarray(fn(xs))
            assert out.shape == xs.shape
            assert np.allclose(out, [fn(float(v)) for v in xs])


def _growing_blocks(draw_block):
    """Values of ``draw_block`` in blocks of 16, 32, ..., 512 and then 512,
    each block drawn when the one before it is used up."""
    def values():
        size = 16
        while True:
            yield from draw_block(size).tolist()
            size = min(2 * size, 512)
    return values().__next__


def _walk_on_growing_blocks(sde, th, g, rng, *, plain, bridge):
    """(plain, improved) times of the Euler walk, replayed with every stream
    in blocks growing from 16 to 512: the normals, plus the crossing uniforms
    of a bridge walk.  Same detectors and stopping rule as the library walk."""
    sign = 1.0 if th.beta(0.0) > sde.x0 else -1.0
    gap = sign * (th.beta(0.0) - sde.x0)
    if gap <= 0.0:
        return 0.0, 0.0
    normal = _growing_blocks(rng.standard_normal)
    uniform = _growing_blocks(rng.random)
    x, improved = sde.x0, math.inf
    for i in range(1, math.ceil(g.horizon / g.delta - 1e-12) + 1):
        x = x + sde.alpha(x) * g.delta + math.sqrt(g.delta) * normal()
        t = i * g.delta
        gap_new = sign * (th.beta(t) - x)
        if gap_new <= 0.0:
            return t, min(improved, t)
        if bridge and uniform() < math.exp(-2.0 * gap * gap_new / g.delta):
            improved = t - 0.5 * g.delta
            if not plain:
                break
            bridge = False
        gap = gap_new
    return math.inf, improved


_EX1 = example1_problem()


@pytest.mark.parametrize(
    "sde,th,delta,horizon",
    [
        (_EX1.sde, _EX1.threshold, 2.0**-4, 8.0),
        (_EX1.sde, _EX1.threshold, 2.0**-6, 8.0),
        # paths of up to 4096 steps, most of them longer than one block
        (_brownian(), linear_threshold(-0.5, 2.0), 2.0**-10, 4.0),
    ],
    ids=["example1_coarse", "example1_fine", "far_line"],
)
def test_walks_serve_the_draws_of_growing_blocks(sde, th, delta, horizon):
    g = GridScheme(delta=delta, horizon=horizon)
    imp = replace(g, scheme="improved_euler")
    long_paths = 0
    for i in range(12):
        # every walk draws the replay's blocks and leaves the generator where
        # the replay leaves it, a bridge walk's two streams interleaved
        rng, ref_rng = substream(21, i), substream(21, i)
        ref_plain, _ = _walk_on_growing_blocks(sde, th, g, ref_rng, plain=True, bridge=False)
        assert euler_fpt(sde, th, g, rng).time == ref_plain
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        long_paths += not ref_plain < 512 * delta
        rng, ref_rng = substream(21, i), substream(21, i)
        pair = coupled_euler_pair(sde, th, imp, rng)
        ref = _walk_on_growing_blocks(sde, th, imp, ref_rng, plain=True, bridge=True)
        assert (pair[0].time, pair[1].time) == ref
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        rng, ref_rng = substream(21, i), substream(21, i)
        ref = _walk_on_growing_blocks(sde, th, imp, ref_rng, plain=False, bridge=True)
        assert improved_euler_fpt(sde, th, imp, rng).time == ref[1]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    if delta < 2.0**-8:
        assert long_paths > 0
    for scheme in (g, imp):
        ref = [
            _walk_on_growing_blocks(
                sde, th, scheme, substream(22, 3, i), plain=False,
                bridge=scheme.scheme == "improved_euler",
            )[1]
            for i in range(12)
        ]
        assert [d.time for d in grid_batch(sde, th, scheme, 12, 22, key_prefix=(3,))] == ref
