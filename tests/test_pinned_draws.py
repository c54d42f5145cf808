"""Pinned draws: literal values of fixed-seed draws, so a changed random
stream or a reordered float expression fails a test rather than only a
hand-checked artifact hash.

The values were recorded with the sampler of the one-frame-per-problem
change; a change that means to alter the streams updates them and says so.
"""

from __future__ import annotations

import pytest

from fptsim.exact import ExactProblem, Proposal, sample_batch
from fptsim.model import Orientation, UnitDiffusionSDE, linear_threshold, make_gamma_pair
from fptsim.neuron import NeuronParams, simulate_spike_train
from fptsim.problems import example1_problem, example2_problem
from fptsim.rng import substream

_SEED = 1213
_INDICES = (0, 3, 7)


def _below_start_line() -> ExactProblem:
    sde = UnitDiffusionSDE(alpha=lambda x: -1.0, alpha_prime=lambda x: 0.0, A=lambda x: -x, x0=0.0)
    th = linear_threshold(0.5, -0.5, Orientation.BELOW_START)
    gammas = make_gamma_pair(sde, th).with_kappa(1.5)
    return ExactProblem(sde=sde, threshold=th, gammas=gammas, proposal=Proposal("linear"))


# (time, proposals, clock_events, line_draws) of entries 0, 3 and 7 of an
# 8-draw batch (8 keys: the batch seed table is in use)
_PINNED = {
    "example1": (
        lambda: example1_problem(),
        None,
        [
            (0.4079612760950797, 5, 10, 0),
            (0.3114115643923846, 1, 3, 0),
            (0.2082712868976795, 2, 1, 0),
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
            (0.24991104865035066, 8, 15, 41),
            (0.23020238023963144, 9, 20, 68),
            (0.382054106945046, 2, 7, 8),
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


def test_spike_train_is_pinned():
    train = simulate_spike_train(NeuronParams(I=20.0), 2.0, substream(_SEED, 0))
    assert train.times == (
        0.037766282816641156, 0.08429544850481754, 0.15303910997614942, 0.22209264412312082,
        0.31498590171507135, 0.38561444176382054, 0.4758520262100291, 0.5531574502951359,
        0.6440956547332363, 0.7600938712662882, 0.8371766695887397, 0.9305728662574086,
        0.9982036954661067, 1.0753268800255467, 1.174293820699984, 1.2766437467303682,
        1.3478979972255833, 1.4620094401638084, 1.5591289179463927, 1.6729223319527968,
        1.796003541642149, 1.9030494664256077,
    )
    assert (train.stages, train.proposals, train.clock_events) == (88, 441, 459)
