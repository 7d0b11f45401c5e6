"""Weighted LASSO for sparse Poisson inverse problems.

Submodules: model (signals, operators, surrogate pairs), solver (coordinate
descent and debiasing), concentration (Poisson tail bounds), bernoulli and
convolution (sensing models and their penalty weights), sensing (the one
dispatch over the two models: draw, surrogate pair, weights), diagnostics
(assumption checks and closed-form bounds), experiments (seeded Monte Carlo
harness), cli (command-line front end).
"""
from . import bernoulli, concentration, convolution, diagnostics, experiments, model
from . import sensing, solver
from .model import (
    Circulant,
    Dense,
    PoissonObservations,
    SparseSignal,
    SurrogatePair,
    make_sparse_signal,
    sample_poisson,
    trial_rng,
)
from .solver import (
    SolveResult,
    SolverConfig,
    WeightVector,
    kkt_check,
    objective,
    oracle_least_squares,
    two_step,
    weighted_lasso,
)

__all__ = [
    "Circulant",
    "Dense",
    "PoissonObservations",
    "SparseSignal",
    "SurrogatePair",
    "SolveResult",
    "SolverConfig",
    "WeightVector",
    "bernoulli",
    "concentration",
    "convolution",
    "diagnostics",
    "experiments",
    "kkt_check",
    "make_sparse_signal",
    "model",
    "objective",
    "oracle_least_squares",
    "sample_poisson",
    "sensing",
    "solver",
    "trial_rng",
    "two_step",
    "weighted_lasso",
]

__version__ = "0.1.0"
