"""The one place that knows which sensing model is which.

Both models reduce to a recentred surrogate pair plus data-dependent weights,
after which the solver and diagnostics see no model.  The CLI and the harness
draw instances or read them from arrays (`from_arrays`, the CLI's instance
files), build surrogate pairs and weights, and look up theta here.
`weights` builds every kind of WEIGHT_KINDS, which is written here: the
solver sees weight values, never a kind.  The oracle kind reads the score at
the truth, pair.score(x_star), which its caller computes once per instance.
A Draw's truth is x_star alone: its support is np.flatnonzero(x_star).
Model functions are looked up on their modules at call time, never captured.
"""
from __future__ import annotations

from typing import Mapping, NamedTuple, Optional

import numpy as np

from . import bernoulli as _bernoulli
from . import convolution as _convolution
from .errors import ParameterError, WeightKindError
from .model import (
    SurrogatePair, apply, check_signal, check_size, check_vector, make_sparse_signal,
    sample_poisson,
)
from .solver import WeightVector

MODELS = ("convolution", "bernoulli")
WEIGHT_KINDS = ("constant", "nonconstant", "oracle")


class Draw(NamedTuple):
    """One instance: the sensing draw, its observations and, if known, the truth,
    whose nonzeros are its support."""

    inst: object
    y: np.ndarray
    x_star: Optional[np.ndarray]


def _module(inst):
    return _convolution if isinstance(inst, _convolution.ConvolutionInstance) else _bernoulli


def draw(
    model: str, p: int, s: int, target_l1: float, rng: np.random.Generator,
    *, m: int, n: int, q: float, noiseless: bool = False,
) -> Draw:
    """Signal, design, then Poisson counts at the intensity A x*, which is exact
    because both are nonnegative; only convolution reads m, only Bernoulli n, q."""
    signal = make_sparse_signal(p, s, target_l1, rng)
    x_star = signal.dense()
    if model == "convolution":
        inst = _convolution.sample_parents(p, m, rng)
    else:
        inst = _bernoulli.sample_bernoulli_matrix(n, p, q, rng)
    intensity = apply(_module(inst).sensing_operator(inst), x_star)
    y = intensity if noiseless else sample_poisson(intensity, rng).counts.astype(np.float64)
    return Draw(inst, y, x_star)


def from_arrays(arrays: Mapping[str, np.ndarray], q: float) -> Draw:
    """The instance named arrays hold: counts (convolution) or a 0/1 design a at
    rate arrays["q"], else q (Bernoulli), then y and, optionally, x_star.  A missing
    array is a KeyError, both designs a ValueError; a refusal names the array, or
    p, m or n for its sizes."""
    if "counts" in arrays and "a" in arrays:
        raise ValueError("both 'counts' and 'a' are set; pick one design")
    if "counts" in arrays:
        inst = _convolution.ConvolutionInstance(arrays["counts"])
    elif "a" in arrays:
        inst = _bernoulli.BernoulliInstance(arrays["a"], float(arrays.get("q", q)))
    else:
        raise KeyError("either 'counts' or 'a'")
    if "y" not in arrays:
        raise KeyError("'y'")
    y = check_vector("y", arrays["y"], inst.p if _module(inst) is _convolution else inst.n)
    if np.any(y < 0):
        raise ParameterError("y", "must be nonnegative", float(y.min()))
    x_star = arrays.get("x_star")
    if x_star is not None:
        x_star = check_vector("x_star", x_star, inst.p)
    return Draw(inst, y, x_star)


def check_params(
    model: str, p: int, s: int, target_l1: float, *, m: int, n: int, q: float, c: float,
) -> None:
    """Raise a ParameterError if draw, the weights at c, or the pair's Gram that a
    trial's score and solves read would raise one; draws nothing.

    The design is checked first, so a p too small is named p, not s.  A
    circulant Gram is a view of one vector, so only a dense one is checked.
    """
    if model == "convolution":
        _convolution.check_parents(p, m)
    else:
        _bernoulli.check_design(n, p, q)
        _bernoulli.check_c(c)
        check_size("p", p, p * p)  # Dense.gram
    check_signal(p, s, target_l1)


def surrogate(inst, y) -> SurrogatePair:
    if _module(inst) is _convolution:
        return _convolution.surrogate_convolution(inst, y)
    return _bernoulli.surrogate_bernoulli(inst, y)


def default_theta(inst) -> float:
    return _module(inst).default_theta(inst.p)


def oracle_weights(deviation: np.ndarray, floor: float = 1e-12) -> WeightVector:
    """|score at the truth|, floored; deviation is pair.score(x_star)."""
    return WeightVector(np.maximum(np.abs(deviation), floor))


def check_weight_kind(kind: str, truth) -> None:
    """Reject a kind that is unknown, or oracle when truth (x* or its score) is None."""
    if kind not in WEIGHT_KINDS:
        raise WeightKindError(
            f"unknown weight kind {kind!r}; expected one of {', '.join(WEIGHT_KINDS)}"
        )
    if kind == "oracle" and truth is None:
        raise WeightKindError("oracle weights need x_star")


def weights(
    kind: str, inst, y, deviation=None, theta: Optional[float] = None, c: float = 1.0,
) -> WeightVector:
    """Weights of any kind: oracle is oracle_weights(deviation), the others read the
    counts y, and c scales the Bernoulli second-order term only."""
    check_weight_kind(kind, deviation)
    if kind == "oracle":
        return oracle_weights(deviation)
    module = _module(inst)
    build = module.constant_weights if kind == "constant" else module.nonconstant_weights
    if module is _convolution:
        return build(inst, y, theta=theta)
    return build(inst, y, c=c, theta=theta)
