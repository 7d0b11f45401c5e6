"""Bernoulli sensing: iid 0/1 design, its surrogate pair, and penalty weights.

The surrogate recentres both sides so the Gram expectation is identity:

  A_tilde = (A - q 11^T) / sqrt(n q (1 - q))
  Y_tilde = (n Y - (sum_l Y_l) 1) / ((n - 1) sqrt(n q (1 - q)))

A_tilde is applied, never formed: its operator is the 0/1 draw itself with
the rank-one shift q and the scale held beside it, so A_tilde x is
(A x - q sum(x)) / sqrt(n q (1 - q)), and the instance keeps A read-only.

Weights bound the score A_tilde^T (Y_tilde - A_tilde x*) coordinatewise with
high probability.  Each weight is a first part controlling the centred linear
statistic (through the concentration toolkit, at theta = 3 log p by default)
plus a shared second-order term c * (theta/n + max(q, 1-q)^2 theta^2 /
(n^2 q (1-q))) * N_hat, where N_hat estimates ||x*||_1 from the counts alone.

Since a is 0/1, (n a_lk - S_k)^2 is (n - S_k)^2 where a_lk = 1 and S_k^2 where
a_lk = 0, with S the column sums.  So the per-coordinate statistics V^T Y come
from y @ a and sum(y) in O(n p), with no n x p temporary, and both the
constant weight's pair maximum and the surrogate Gram come from the
co-occurrence counts C = a^T a, one O(n p^2) product per draw: the 0/1
design's own Gram, cached on the instance under the model's size rule, which
also bounds the n x p draw:

  A_tilde^T A_tilde = (C - q S 1^T - q 1 S^T + n q^2 11^T) / (n q (1 - q)).

The product runs in single precision: every entry and every partial sum is a
whole number of at most n, and the size rule keeps n below 2^24, so float32
rounds none of them and C keeps every bit of the float64 product.  It casts
one block of rows at a time, so its temporary is a block of rows, not an
n x p copy of the design.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .concentration import (
    bernstein_bound,
    check_theta,
    empirical_deviation_bound,
    variance_envelope,
)
from .errors import ParameterError, RegimeViolationError
from .model import Dense, SurrogatePair, check_size, check_vector
from .solver import WeightVector

_BLOCK_ROWS = 512  # rows cast to float32 at a time by BernoulliInstance.co_occurrence


def default_theta(p: int) -> float:
    return 3.0 * math.log(p)


@dataclass(eq=False)
class BernoulliInstance:
    """A Bernoulli draw is its n x p 0/1 design a, which n, p and the column sums S
    are read off, and its rate q.  The operators share a uncopied, so it is read-only."""

    a: np.ndarray
    q: float

    def __post_init__(self):
        a = np.asarray(self.a)
        binary = a.dtype == np.bool_  # as the sampler draws it: nothing but 0 and 1
        self.a = a.astype(np.float64, copy=False)
        if self.a.ndim != 2:
            raise ParameterError("a", "must be a matrix", self.a.shape)
        self.n, self.p = self.a.shape
        check_design(self.n, self.p, self.q)
        if not binary:
            bad = (self.a != 0.0) & (self.a != 1.0)
            if bad.any():
                raise ParameterError("a", "must have entries in {0, 1}", self.a[bad][0].item())
        self.a.flags.writeable = False
        self.column_sums = self.a.sum(axis=0)

    @cached_property
    def co_occurrence(self) -> np.ndarray:
        """C = a^T a, the design's own Gram, read-only: C[u, k] counts the rows
        where columns u and k are both 1, so its diagonal holds the column sums.

        Summed in float32, which keeps every bit (see the module docstring),
        over blocks of _BLOCK_ROWS rows, each cast on its own: besides p x p
        arrays, the only temporary is one float32 block, never an n x p copy."""
        check_size("p", self.p, self.p**2)
        # exact: entries and partial sums are whole numbers <= n, the size rule
        # keeps n below 2^24, and float32 holds every whole number up to 2^24
        counts = np.zeros((self.p, self.p), dtype=np.float32)
        for start in range(0, self.n, _BLOCK_ROWS):
            block = self.a[start : start + _BLOCK_ROWS].astype(np.float32)
            counts += block.T @ block
            del block  # freed before the next cast: one block alive at a time
        counts = counts.astype(np.float64)
        counts.flags.writeable = False
        return counts


def check_design(n: int, p: int, q: float) -> None:
    """An n x p draw over the size rule is named p if one row of it is, else n."""
    if n < 2:
        raise ParameterError("n", "must be >= 2", n)
    if p < 2:
        raise ParameterError("p", "must be >= 2", p)
    if not 0.0 < q < 1.0:
        raise ParameterError("q", "must lie in (0, 1)", q)
    check_size("p", p, p)
    check_size("n", n, n * p)


def check_c(c: float) -> None:
    """c scales the second-order weight term, so it must be finite and >= 0."""
    if not 0.0 <= c < math.inf:
        raise ParameterError("c", "must be finite and >= 0", c)


def sample_bernoulli_matrix(
    n: int, p: int, q: float, rng: np.random.Generator
) -> BernoulliInstance:
    check_design(n, p, q)
    return BernoulliInstance(rng.random((n, p)) < q, q)


def sensing_operator(inst: BernoulliInstance) -> Dense:
    return Dense(inst.a)


def _scale(inst: BernoulliInstance) -> float:
    return math.sqrt(inst.n * inst.q * (1.0 - inst.q))


def surrogate_bernoulli(inst: BernoulliInstance, y) -> SurrogatePair:
    y = check_vector("y", y, inst.n)
    scale = _scale(inst)
    # (a - q 11^T) / scale, applied on the 0/1 draw itself: no n x p copy
    a_tilde = Dense(inst.a, partial(_surrogate_gram, inst), shift=inst.q, scale=scale)
    y_tilde = (inst.n * y - y.sum()) / ((inst.n - 1) * scale)
    return SurrogatePair(a_tilde=a_tilde, y_tilde=y_tilde)


def _surrogate_gram(inst: BernoulliInstance) -> np.ndarray:
    """A_tilde^T A_tilde from the co-occurrence counts, without the n x p product."""
    n, q, sums = inst.n, inst.q, inst.column_sums
    gram = inst.co_occurrence - q * sums[:, None]
    gram -= q * sums - n * q * q
    gram /= n * q * (1.0 - q)
    return gram


def l1_norm_estimator(inst: BernoulliInstance, y, theta: float | None = None) -> float:
    """Observable high-probability upper bound N_hat on ||x*||_1.

    The numerator is the variance envelope of the total count; the denominator
    nq - sqrt(2 n q (1-q) theta) - max(q, 1-q) theta / 3 must be positive,
    which holds throughout the regime nq >= 12 max(q, 1-q) log p at the
    default theta.
    """
    y = check_vector("y", y, inst.n)
    theta = default_theta(inst.p) if theta is None else check_theta(theta)
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


def max_pair_weight(inst: BernoulliInstance) -> float:
    """Exact W = max_{u,k} w(u,k) with
    w(u,k) = sum_l a_{l,u} (n a_{l,k} - S_k)^2 / (n^2 (n-1)^2 q^2 (1-q)^2).

    Since a is 0/1, (n a_lk - S_k)^2 is a_lk (n^2 - 2 n S_k) + S_k^2, so W
    comes from the co-occurrence counts a^T a, shared with the surrogate Gram:
    one n x p by n x p product per draw, O(n p^2), under the size rule.
    """
    n, q = inst.n, inst.q
    counts = inst.co_occurrence
    sums = inst.column_sums
    # every term is an integer of magnitude <= n^3, exact in float64 while
    # n^3 < 2^53, so this equals a^T (n a - S)^2 bit for bit
    w = counts * (n * n - 2.0 * n * sums) + np.outer(counts.diagonal(), sums * sums)
    w /= (n * (n - 1) * q * (1.0 - q)) ** 2
    return float(w.max())


def constant_weights(
    inst: BernoulliInstance, y, c: float = 1.0, theta: float | None = None
) -> WeightVector:
    """Single weight from the worst pair statistic W and the mass bound N_hat."""
    check_c(c)
    if theta is None:
        theta = default_theta(inst.p)
    n_hat = l1_norm_estimator(inst, y, theta)
    w_max = max_pair_weight(inst)
    d = bernstein_bound(w_max * n_hat, _r_inf_bound(inst), theta)
    d += _second_order_term(inst, c, theta, n_hat)
    return WeightVector.constant(inst.p, d)


def variance_statistics(inst: BernoulliInstance, y: np.ndarray) -> np.ndarray:
    """V^T y with V_{l,k} = ((n a_{l,k} - S_k) / (n (n-1) q (1-q)))^2, in O(n p):

      ((y @ a) (n - S)^2 + (sum(y) - y @ a) S^2) / (n (n-1) q (1-q))^2.

    With integer counts every term before the division is exact.  With float
    y, sum(y) - y @ a carries the rounding of sum(y), which is large next to
    the result only where S_k is near n.
    """
    n, q, sums = inst.n, inst.q, inst.column_sums
    on_ones = y @ inst.a
    # y on each column's zeros; counts are nonnegative, so the clamp only drops rounding
    on_zeros = np.maximum(y.sum() - on_ones, 0.0)
    vty = on_ones * (n - sums) ** 2 + on_zeros * sums * sums
    vty /= (n * (n - 1) * q * (1.0 - q)) ** 2
    return vty


def nonconstant_weights(
    inst: BernoulliInstance, y, c: float = 1.0, theta: float | None = None
) -> WeightVector:
    """Per-coordinate weights from the observable statistics V_k^T Y."""
    check_c(c)
    y = check_vector("y", y, inst.n)
    if theta is None:
        theta = default_theta(inst.p)
    n_hat = l1_norm_estimator(inst, y, theta)
    d = empirical_deviation_bound(_r_inf_bound(inst), variance_statistics(inst, y), theta)
    d += _second_order_term(inst, c, theta, n_hat)
    return WeightVector(d)
