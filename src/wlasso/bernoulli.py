"""Bernoulli sensing: iid 0/1 design, its surrogate pair, and penalty weights.

The surrogate recentres both sides so the Gram expectation is identity:

  A_tilde = (A - q 11^T) / sqrt(n q (1 - q))
  Y_tilde = (n Y - (sum_l Y_l) 1) / ((n - 1) sqrt(n q (1 - q)))

Weights bound the score A_tilde^T (Y_tilde - A_tilde x*) coordinatewise with
high probability.  Each weight is a first part controlling the centred linear
statistic (through the concentration toolkit, at theta = 3 log p by default)
plus a shared second-order term c * (theta/n + max(q, 1-q)^2 theta^2 /
(n^2 q (1-q))) * N_hat, where N_hat estimates ||x*||_1 from the counts alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concentration import (
    bernstein_bound,
    empirical_deviation_bound,
    variance_envelope,
)
from .errors import EnumerationGuardError, RegimeViolationError
from .model import Dense, SurrogatePair
from .solver import WeightVector


def default_theta(p: int) -> float:
    return 3.0 * math.log(p)


@dataclass(eq=False)
class BernoulliInstance:
    n: int
    p: int
    q: float
    a: np.ndarray
    column_sums: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if not 0.0 < self.q < 1.0:
            raise ValueError("need 0 < q < 1")
        self.a = np.asarray(self.a, dtype=np.float64)
        if self.a.shape != (self.n, self.p):
            raise ValueError("a must be n x p")
        self.column_sums = np.asarray(self.column_sums, dtype=np.float64)
        if self.column_sums.shape != (self.p,):
            raise ValueError("column_sums must have length p")


def sample_bernoulli_matrix(
    n: int, p: int, q: float, rng: np.random.Generator
) -> BernoulliInstance:
    if n < 2 or p < 1:
        raise ValueError("need n >= 2 and p >= 1")
    if not 0.0 < q < 1.0:
        raise ValueError("need 0 < q < 1")
    a = (rng.random((n, p)) < q).astype(np.float64)
    return BernoulliInstance(n=n, p=p, q=q, a=a, column_sums=a.sum(axis=0))


def sensing_operator(inst: BernoulliInstance) -> Dense:
    return Dense(inst.a)


def _scale(inst: BernoulliInstance) -> float:
    return math.sqrt(inst.n * inst.q * (1.0 - inst.q))


def surrogate_bernoulli(inst: BernoulliInstance, y) -> SurrogatePair:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (inst.n,):
        raise ValueError("y must have length n")
    scale = _scale(inst)
    a_tilde = Dense((inst.a - inst.q) / scale)
    y_tilde = (inst.n * y - y.sum()) / ((inst.n - 1) * scale)
    return SurrogatePair(a_tilde=a_tilde, y_tilde=y_tilde)


def l1_norm_estimator(inst: BernoulliInstance, y, theta: float | None = None) -> float:
    """Observable high-probability upper bound N_hat on ||x*||_1.

    The numerator is the variance envelope of the total count; the denominator
    nq - sqrt(2 n q (1-q) theta) - max(q, 1-q) theta / 3 must be positive,
    which holds throughout the regime nq >= 12 max(q, 1-q) log p at the
    default theta.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (inst.n,):
        raise ValueError("y must have length n")
    if theta is None:
        theta = default_theta(inst.p)
    n, q = inst.n, inst.q
    qmax = max(q, 1.0 - q)
    denom = n * q - math.sqrt(2.0 * n * q * (1.0 - q) * theta) - qmax * theta / 3.0
    if denom <= 0.0:
        raise RegimeViolationError(
            "l1 estimator needs nq - sqrt(2 nq(1-q) theta) - max(q,1-q) theta/3 "
            f"> 0 (nq >= 12 max(q,1-q) log p at the default theta); got n={n}, "
            f"q={q}, theta={theta:.4g}"
        )
    return variance_envelope(1.0, float(y.sum()), theta) / denom


def _r_inf_bound(inst: BernoulliInstance) -> float:
    # max_l |R_{k,l}| <= 1 / ((n-1) q (1-q)) for every coordinate k
    return 1.0 / ((inst.n - 1) * inst.q * (1.0 - inst.q))


def _second_order_term(
    inst: BernoulliInstance, c: float, theta: float, n_hat: float
) -> float:
    n, q = inst.n, inst.q
    qmax2 = max(q * q, (1.0 - q) * (1.0 - q))
    return c * (theta / n + qmax2 * theta * theta / (n * n * q * (1.0 - q))) * n_hat


def max_pair_weight(inst: BernoulliInstance, max_ops: float = 1e9) -> float:
    """Exact W = max_{u,k} w(u,k) with
    w(u,k) = sum_l a_{l,u} (n a_{l,k} - S_k)^2 / (n^2 (n-1)^2 q^2 (1-q)^2).

    One n x p by n x p product, O(n p^2); guarded rather than subsampled.
    """
    n, p, q = inst.n, inst.p, inst.q
    if float(n) * p * p > max_ops:
        raise EnumerationGuardError(
            f"exact pair-weight maximum needs ~{float(n) * p * p:.2e} ops, "
            f"budget {max_ops:.2e}"
        )
    centered_sq = (n * inst.a - inst.column_sums) ** 2
    w = inst.a.T @ centered_sq
    w /= (n * (n - 1) * q * (1.0 - q)) ** 2
    return float(w.max())


def constant_weights(
    inst: BernoulliInstance,
    y,
    c: float = 1.0,
    theta: float | None = None,
    max_ops: float = 1e9,
) -> WeightVector:
    """Single weight from the worst pair statistic W and the mass bound N_hat."""
    if theta is None:
        theta = default_theta(inst.p)
    n_hat = l1_norm_estimator(inst, y, theta)
    w_max = max_pair_weight(inst, max_ops)
    d = bernstein_bound(w_max * n_hat, _r_inf_bound(inst), theta)
    d += _second_order_term(inst, c, theta, n_hat)
    return WeightVector.constant(inst.p, d)


def nonconstant_weights(
    inst: BernoulliInstance, y, c: float = 1.0, theta: float | None = None
) -> WeightVector:
    """Per-coordinate weights from the observable statistics V_k^T Y with
    V_{k,l} = ((n a_{l,k} - S_k) / (n (n-1) q (1-q)))^2."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (inst.n,):
        raise ValueError("y must have length n")
    if theta is None:
        theta = default_theta(inst.p)
    n, q = inst.n, inst.q
    n_hat = l1_norm_estimator(inst, y, theta)
    v = ((n * inst.a - inst.column_sums) / (n * (n - 1) * q * (1.0 - q))) ** 2
    vty = y @ v
    d = empirical_deviation_bound(_r_inf_bound(inst), vty, theta)
    d += _second_order_term(inst, c, theta, n_hat)
    return WeightVector(d, "nonconstant")
