"""Pinned draws: literal values of fixed-seed draws, so a changed random
stream or a reordered float expression fails a test rather than only a
hand-checked artifact hash.

The values were recorded with the sampler of the one-frame-per-problem
change, the spike train again when its stages came to share one set of
block streams, Example 2 again when it came to measure against
Brownian motion with drift g*, both examples again when their time rate
came to be accepted in closed form, and Example 2 again when its time
factor's uniform came to be drawn before the line iteration; a change that
means to alter the streams updates them and says so.
"""

from __future__ import annotations

import pytest

from fptsim.baselines import GridScheme, grid_batch
from fptsim.exact import ExactProblem, sample_batch
from fptsim.model import UnitDiffusionSDE, linear_threshold, make_gamma_pair
from fptsim.neuron import NeuronParams, simulate_spike_train
from fptsim.problems import build_custom_problem, example1_problem, example2_problem
from fptsim.rng import substream

_SEED = 1213
_INDICES = (0, 3, 7)


def _below_start_line() -> ExactProblem:
    sde = UnitDiffusionSDE(alpha=lambda x: -1.0, alpha_prime=lambda x: 0.0, A=lambda x: -x, x0=0.0)
    th = linear_threshold(0.5, -0.5)
    gammas = make_gamma_pair(sde, th).with_kappa(1.5)
    return ExactProblem(sde=sde, threshold=th, gammas=gammas)


# (time, proposals, clock_events, line_draws) of entries 0, 3 and 7 of an
# 8-draw batch (8 keys: the batch seed table is in use)
_PINNED = {
    "example1": (
        lambda: example1_problem(),
        None,
        [
            (0.2043550340488171, 1, 0, 0),
            (0.06556101535397868, 3, 1, 0),
            (0.2082712868976795, 2, 0, 0),
        ],
    ),
    "below_start_line": (
        _below_start_line,
        None,
        [
            (0.23164453179647926, 7, 7, 0),
            (0.5149699628450963, 1, 1, 0),
            (0.299883169685905, 2, 1, 0),
        ],
    ),
    "example2_eps20": (
        lambda: example2_problem(epsilon=2.0**-20),
        None,
        [
            (3.067400940802577, 9, 23, 27),
            (1.8124594166640646, 8, 7, 24),
            (0.18494777191250855, 1, 0, 3),
        ],
    ),
    # the registry's exponential threshold below its start: a reflected frame
    "exponential_below_start": (
        lambda: build_custom_problem("sinusoidal", {}, "exponential", {"a": 0.5, "b": 1.0},
                                     x0=1.0),
        None,
        [
            (0.06504999158289251, 7, 5, 12),
            (0.10139345559823057, 2, 2, 3),
            (0.1441100252447408, 2, 0, 3),
        ],
    ),
    "example1_split3": (
        lambda: example1_problem(),
        3,
        [
            (0.12198303651955203, 4, 2, 0),
            (0.9168799407670356, 5, 6, 0),
            (0.10833552239636854, 4, 1, 0),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_batch_draws_are_pinned(name):
    build, split, expected = _PINNED[name]
    draws = sample_batch(build(), 8, _SEED, split=split)
    got = [(draws[i].time, draws[i].proposals, draws[i].clock_events, draws[i].line_draws)
           for i in _INDICES]
    assert got == expected


# grid times of entries 0, 3 and 7 of an 8-path batch on Example 1 at delta = 2^-6
_GRID_PINNED = {
    "euler": [0.296875, 0.53125, 0.125],
    "improved_euler": [0.296875, 0.53125, 0.125],
}


@pytest.mark.parametrize("scheme", sorted(_GRID_PINNED))
def test_grid_draws_are_pinned(scheme):
    problem = example1_problem()
    draws = grid_batch(problem.sde, problem.threshold, GridScheme(2.0**-6, 8.0, scheme), 8, _SEED)
    assert [draws[i].time for i in _INDICES] == _GRID_PINNED[scheme]
    assert all(draws[i].finite for i in _INDICES)


def test_spike_train_is_pinned():
    train = simulate_spike_train(NeuronParams(I=20.0), 2.0, substream(_SEED, 0))
    assert train.times == (
        0.030334553920415952, 0.08493764916403959, 0.16139810343367078, 0.23584611123801646,
        0.3166456774976524, 0.4083106483975177, 0.48789590359842266, 0.5753725366449283,
        0.6907533829773213, 0.7941368127482993, 0.8798191065791974, 0.9877550711524097,
        1.0886392163021896, 1.187082917370892, 1.2938691287583632, 1.4112099247920915,
        1.5148025498761157, 1.627795416275763, 1.711437273519774, 1.807992324648582,
        1.8938583719189668, 1.9974885029386689,
    )
    assert (train.stages, train.proposals, train.clock_events) == (85, 481, 504)
