"""Exact first-passage-time sampling for one-dimensional diffusions.

The package simulates the first time a unit-diffusion process
``dX_t = alpha(X_t) dt + dB_t`` crosses a moving threshold ``beta(t)``,
without any time-discretization error:

* :mod:`fptsim.model` — process/threshold descriptions, measure-change
  rate pairs, the Lamperti transform to unit diffusion;
* :mod:`fptsim.bm_fpt` — exact passage laws for Brownian motion through
  constant, linear and curved boundaries (the proposal distributions);
* :mod:`fptsim.exact` — the rejection sampler: Poisson-clock thinning of
  proposals with Brownian-bridge evaluations at the clock times;
* :mod:`fptsim.baselines` — Euler-type grid schemes with bridge crossing
  corrections, for accuracy/cost comparisons;
* :mod:`fptsim.problems` — ready-made example problems and a registry for
  assembling custom ones;
* :mod:`fptsim.neuron` — application: spike trains of a stochastic
  integrate-and-fire neuron with an adaptive threshold;
* :mod:`fptsim.stats`, :mod:`fptsim.rng` — summary statistics and
  reproducible per-index stream derivation;
* :mod:`fptsim.cli` — the ``fpt`` console entry point.
"""

from .bm_fpt import CurvyParams, FptDraw
from .errors import (
    AssumptionViolation,
    ConfigurationError,
    DomainError,
    FptsimError,
    NonTerminationError,
    ParameterError,
    SequencingError,
)
from .exact import ExactProblem, expected_proposals, sample_batch, sample_exact
from .model import (
    GammaPair,
    GeneralSDE,
    Threshold,
    UnitDiffusionSDE,
    constant_threshold,
    lamperti_transform,
    linear_threshold,
    make_gamma_pair,
)
from .neuron import NeuronParams, SpikeTrain, simulate_spike_train, simulate_trials
from .problems import build_custom_problem, example1_problem, example2_problem

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AssumptionViolation",
    "ConfigurationError",
    "CurvyParams",
    "DomainError",
    "ExactProblem",
    "FptDraw",
    "FptsimError",
    "GammaPair",
    "GeneralSDE",
    "NeuronParams",
    "NonTerminationError",
    "ParameterError",
    "SequencingError",
    "SpikeTrain",
    "Threshold",
    "UnitDiffusionSDE",
    "build_custom_problem",
    "constant_threshold",
    "example1_problem",
    "example2_problem",
    "expected_proposals",
    "lamperti_transform",
    "linear_threshold",
    "make_gamma_pair",
    "sample_batch",
    "sample_exact",
    "simulate_spike_train",
    "simulate_trials",
]
