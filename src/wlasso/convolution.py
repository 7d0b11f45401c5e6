"""Random convolution sensing: m uniform parents on Z_p, circulant design.

With counts N(u) of parents at each position, the sensing operator is the
circulant A_{l,k} = N(l - k mod p) and the surrogate pair is

  A_tilde = A / sqrt(m) - ((sqrt(m) - 1) / p) 11^T      (still circulant)
  Y_tilde = Y / sqrt(m) - ((sqrt(m) - 1) / p) Ybar 1,   Ybar = ||Y||_1 / m.

Weights bound the score coordinatewise at theta = 2 log p by default, using
B = max_u |N(u) - (m-1)/p| / m and cyclic correlations of the squared centred
counts with either the counts (constant weight) or the observations
(per-coordinate weights).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .concentration import (
    bernstein_bound,
    empirical_deviation_bound,
    variance_envelope,
)
from .errors import ParameterError
from .model import Circulant, SurrogatePair, check_length, cyclic_correlate
from .solver import WeightVector


def default_theta(p: int) -> float:
    return 2.0 * math.log(p)


@dataclass(eq=False)
class ConvolutionInstance:
    p: int
    m: int
    counts: np.ndarray
    parents: Optional[np.ndarray] = None

    def __post_init__(self):
        check_parents(self.p, self.m)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (self.p,):
            raise ValueError("counts must have length p")
        if np.any(self.counts < 0) or int(self.counts.sum()) != self.m:
            raise ValueError("counts must be nonnegative and sum to m")


def check_parents(p: int, m: int) -> None:
    if p < 2:
        raise ParameterError("p", "must be >= 2", p)
    if m < 1:
        raise ParameterError("m", "must be >= 1", m)
    check_length("m", m)


def sample_parents(p: int, m: int, rng: np.random.Generator) -> ConvolutionInstance:
    check_parents(p, m)
    parents = rng.integers(0, p, size=m)
    counts = np.bincount(parents, minlength=p)
    return ConvolutionInstance(p=p, m=m, counts=counts, parents=parents)


def sensing_operator(inst: ConvolutionInstance) -> Circulant:
    return Circulant(inst.counts.astype(np.float64))


def surrogate_convolution(inst: ConvolutionInstance, y) -> SurrogatePair:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (inst.p,):
        raise ValueError("y must have length p")
    rm = math.sqrt(inst.m)
    offset = (rm - 1.0) / inst.p
    gen = inst.counts / rm - offset
    ybar = y.sum() / inst.m
    y_tilde = y / rm - offset * ybar
    return SurrogatePair(a_tilde=Circulant(gen), y_tilde=y_tilde)


def _centered_counts(inst: ConvolutionInstance) -> np.ndarray:
    return inst.counts - (inst.m - 1.0) / inst.p


def count_spread_bound(inst: ConvolutionInstance) -> float:
    """B = max_u |N(u) - (m-1)/p| / m, the sup-norm scale of the score rows."""
    return float(np.abs(_centered_counts(inst)).max()) / inst.m


def local_variance_estimates(inst: ConvolutionInstance, y) -> np.ndarray:
    """v_hat_k = sum_l (N(l-k) - (m-1)/p)^2 Y_l / m^2, by cyclic correlation."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (inst.p,):
        raise ValueError("y must have length p")
    e = _centered_counts(inst) ** 2 / inst.m**2
    return cyclic_correlate(e, y)


def constant_weights(
    inst: ConvolutionInstance, y, theta: float | None = None
) -> WeightVector:
    """Single weight from W = max_l sum_u (N(u) - (m-1)/p)^2 N(u+l) / m^2 and
    the observable envelope of ||x*||_1 built from Ybar."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (inst.p,):
        raise ValueError("y must have length p")
    if theta is None:
        theta = default_theta(inst.p)
    e = _centered_counts(inst) ** 2 / inst.m**2
    w_max = float(cyclic_correlate(e, inst.counts.astype(np.float64)).max())
    ybar = float(y.sum()) / inst.m
    mass_env = variance_envelope(1.0 / math.sqrt(inst.m), ybar, theta)
    d = bernstein_bound(w_max * mass_env, count_spread_bound(inst), theta)
    return WeightVector.constant(inst.p, d)


def nonconstant_weights(
    inst: ConvolutionInstance, y, theta: float | None = None
) -> WeightVector:
    if theta is None:
        theta = default_theta(inst.p)
    v_hat = local_variance_estimates(inst, y)
    d = empirical_deviation_bound(count_spread_bound(inst), v_hat, theta)
    return WeightVector(d, "nonconstant")
