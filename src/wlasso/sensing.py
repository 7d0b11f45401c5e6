"""The one place that knows which sensing model is which.

Both models reduce to a recentred surrogate pair plus data-dependent weights,
after which the solver and diagnostics see no model.  The CLI and the harness
draw instances, build surrogate pairs and weights, and look up theta here.
Model functions are looked up on their modules at call time, never captured.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from . import bernoulli as _bernoulli
from . import convolution as _convolution
from .errors import WeightKindError
from .model import SurrogatePair, apply, deviation_at_truth, make_sparse_signal, sample_poisson
from .solver import WeightVector

MODELS = ("convolution", "bernoulli")
WEIGHT_KINDS = ("constant", "nonconstant", "oracle")


class Draw(NamedTuple):
    """One instance: the sensing draw, its observations and, if known, the truth."""

    inst: object
    y: np.ndarray
    x_star: Optional[np.ndarray]
    support: Optional[np.ndarray]


def _module(inst):
    return _convolution if isinstance(inst, _convolution.ConvolutionInstance) else _bernoulli


def draw(
    model: str, p: int, s: int, target_l1: float, rng: np.random.Generator,
    *, m: int, n: int, q: float, noiseless: bool = False,
) -> Draw:
    """Signal, design, then Poisson counts; only convolution reads m, only Bernoulli n, q."""
    signal = make_sparse_signal(p, s, target_l1, rng)
    x_star = signal.dense()
    if model == "convolution":
        inst = _convolution.sample_parents(p, m, rng)
    else:
        inst = _bernoulli.sample_bernoulli_matrix(n, p, q, rng)
    intensity = apply(_module(inst).sensing_operator(inst), x_star)
    y = intensity if noiseless else sample_poisson(intensity, rng).counts.astype(np.float64)
    return Draw(inst, y, x_star, signal.support)


def surrogate(inst, y) -> SurrogatePair:
    if _module(inst) is _convolution:
        return _convolution.surrogate_convolution(inst, y)
    return _bernoulli.surrogate_bernoulli(inst, y)


def default_theta(inst) -> float:
    return _module(inst).default_theta(inst.p)


def oracle_weights(pair: SurrogatePair, x_star, floor: float = 1e-12) -> WeightVector:
    """|score at the truth|, floored; works for any surrogate pair."""
    x_star = np.asarray(x_star, dtype=np.float64)
    d = np.abs(deviation_at_truth(pair, x_star))
    return WeightVector(np.maximum(d, floor), "oracle")


def weights(
    kind: str, inst, pair: SurrogatePair, y, x_star=None,
    theta: Optional[float] = None, c: float = 1.0,
) -> WeightVector:
    """Weights of one kind; c scales the Bernoulli second-order term only."""
    if kind not in WEIGHT_KINDS:
        raise WeightKindError(
            f"unknown weight kind {kind!r}; expected one of {', '.join(WEIGHT_KINDS)}"
        )
    if kind == "oracle":
        if x_star is None:
            raise WeightKindError("oracle weights need x_star")
        return oracle_weights(pair, x_star)
    module = _module(inst)
    build = module.constant_weights if kind == "constant" else module.nonconstant_weights
    if module is _convolution:
        return build(inst, y, theta=theta)
    return build(inst, y, c=c, theta=theta)
