"""Pinned draws: literal values of fixed-seed draws, so a changed random
stream or a reordered float expression fails a test rather than only a
hand-checked artifact hash.

The values were recorded with the sampler of the one-frame-per-problem
change, the spike train again when its stages came to share one set of
block streams, Example 2 again when it came to measure against
Brownian motion with drift g*, both examples again when their time rate
came to be accepted in closed form, Example 2 again when its time
factor's uniform came to be drawn before the line iteration, and all of them
again when exact draws came to take every value from a normal and a uniform
block stream (line proposals through the one Wald sampler, clock gaps by
inversion, a split draw's stages on one set of streams) and bridge walks
came to grow their blocks; a change that means to alter the streams updates
them and says so.
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
            (0.31141156439238454, 1, 4, 0),
            (0.09027120594934786, 2, 0, 0),
        ],
    ),
    "below_start_line": (
        _below_start_line,
        None,
        [
            (0.2925410672061471, 1, 0, 0),
            (0.08490648791875925, 3, 2, 0),
            (1.5263754807723986, 2, 3, 0),
        ],
    ),
    "example2_eps20": (
        lambda: example2_problem(epsilon=2.0**-20),
        None,
        [
            (0.22254394077295225, 5, 1, 17),
            (0.503316101642883, 10, 4, 18),
            (0.5447371488906955, 3, 3, 8),
        ],
    ),
    # the registry's exponential threshold below its start: a reflected frame
    "exponential_below_start": (
        lambda: build_custom_problem("sinusoidal", {}, "exponential", {"a": 0.5, "b": 1.0},
                                     x0=1.0),
        None,
        [
            (0.2894838830757009, 5, 4, 9),
            (0.1721174833382436, 11, 12, 23),
            (0.1441100252447408, 2, 0, 3),
        ],
    ),
    "example1_split3": (
        lambda: example1_problem(),
        3,
        [
            (0.30474779691528103, 4, 3, 0),
            (0.09955269736160507, 5, 2, 0),
            (0.3103605007391191, 4, 2, 0),
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
    "improved_euler": [0.2578125, 0.34375, 0.125],
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
        0.03679589054501246, 0.10133629293832391, 0.16375660365720146, 0.2283522540763089,
        0.30317774994778396, 0.381424578685623, 0.45604408091205895, 0.5440942133030101,
        0.6359625252340901, 0.7346816464159371, 0.8088705801340665, 0.945615322878466,
        1.0415588877745252, 1.155342943910112, 1.2501826393795397, 1.3905193627286816,
        1.4791248024243384, 1.5626876781439052, 1.6654026606041348, 1.759690156711853,
        1.850712590903772, 1.9375338914126743,
    )
    assert (train.stages, train.proposals, train.clock_events) == (86, 478, 519)


def test_leaky_spike_train_is_pinned():
    # tau_m = 1 gives d = 1 > 0: the leaky membrane's stages
    train = simulate_spike_train(NeuronParams(tau_m=1.0, I=10.0), 2.0, substream(_SEED, 0))
    assert train.times == (
        0.05953673683957981, 0.19034098626400844, 0.41591196721276, 0.5537601923202649,
        0.6769549984101138, 0.8524626093708032, 1.1016042042341196, 1.2593177370444668,
        1.3863211102564152, 1.5867645403766795, 1.8347048800659889, 1.9737914864531365,
    )
    assert (train.stages, train.proposals, train.clock_events) == (30, 71, 123)
