"""Weighted LASSO by cyclic coordinate descent, plus the debiasing estimators.

The objective is ||y_tilde - A_tilde x||_2^2 + gamma * sum_k d_k |x_k| (no 1/2
on the quadratic), so the per-coordinate soft threshold is gamma * d_k / 2.
Circulant designs get O(p) coordinate updates through the Gram generator; dense
designs keep a running residual.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateColumnError, SingularDesignError
from .model import Circulant, Dense, SurrogatePair, apply, apply_adjoint, cyclic_convolve


@dataclass
class SolverConfig:
    """gamma > 2 is what the guarantees need; smaller values only warn."""

    gamma: float
    tol_coord: Optional[float] = None
    tol_kkt: float = 1e-8
    max_iter: int = 10_000
    support_eps: float = 1e-9

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.gamma <= 2:
            warnings.warn(
                f"gamma = {self.gamma} is outside the gamma > 2 regime the "
                "guarantees assume",
                UserWarning,
                stacklevel=2,
            )
        if self.tol_coord is not None and self.tol_coord <= 0:
            raise ValueError("tol_coord must be positive")
        if self.tol_kkt <= 0:
            raise ValueError("tol_kkt must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.support_eps < 0:
            raise ValueError("support_eps must be >= 0")


@dataclass(eq=False)
class WeightVector:
    """Per-coordinate penalty weights d_k > 0."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in ("constant", "nonconstant", "oracle"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("weights must be a nonempty vector")
        if np.any(self.values <= 0) or not np.all(np.isfinite(self.values)):
            raise ValueError("weights must be positive and finite")
        if self.kind == "constant" and np.any(self.values != self.values[0]):
            raise ValueError("constant weights must all be equal")

    @classmethod
    def constant(cls, p: int, value: float) -> "WeightVector":
        return cls(np.full(p, float(value)), "constant")

    @property
    def max_weight(self) -> float:
        return float(self.values.max())

    @property
    def min_weight(self) -> float:
        return float(self.values.min())

    def penalty_ratio_bound(self, gamma: float) -> float:
        """((gamma + 2) / (gamma - 2)) * d_max / d_min, the cone opening."""
        if gamma <= 2:
            raise ValueError("ratio bound needs gamma > 2")
        return (gamma + 2) / (gamma - 2) * self.max_weight / self.min_weight


@dataclass(eq=False)
class SolveResult:
    x_hat: np.ndarray
    iterations: int
    kkt_residual: float
    objective: float
    converged: bool


def soft_threshold(z: float, t: float) -> float:
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def objective(
    pair: SurrogatePair, weights: WeightVector, gamma: float, x: np.ndarray
) -> float:
    x = np.asarray(x, dtype=np.float64)
    residual = pair.y_tilde - apply(pair.a_tilde, x)
    return float(residual @ residual + gamma * np.abs(x) @ weights.values)


def _kkt_from_score(score: np.ndarray, x: np.ndarray, thresholds: np.ndarray) -> float:
    """Worst violation of the stationarity conditions, given the score A^T r.

    Nonzero coordinates must sit exactly on their threshold with the right
    sign; zero coordinates must stay inside it.
    """
    active = x != 0
    viol_zero = np.abs(score) - thresholds
    viol_zero[active] = 0.0
    np.maximum(viol_zero, 0.0, out=viol_zero)
    viol_active = np.abs(score - np.sign(x) * thresholds)
    viol_active[~active] = 0.0
    return float(max(viol_zero.max(initial=0.0), viol_active.max(initial=0.0)))


def kkt_check(
    pair: SurrogatePair, weights: WeightVector, gamma: float, x: np.ndarray
) -> float:
    x = np.asarray(x, dtype=np.float64)
    score = _fresh_score(pair.a_tilde, pair.y_tilde, x)
    return _kkt_from_score(score, x, gamma * weights.values / 2.0)


def _fresh_score(op: Circulant | Dense, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    return apply_adjoint(op, y - apply(op, x))


def weighted_lasso(
    pair: SurrogatePair,
    weights: WeightVector,
    config: SolverConfig,
    x0: Optional[np.ndarray] = None,
) -> SolveResult:
    """Minimize the weighted LASSO objective by cyclic coordinate descent.

    Stops once a full sweep moves no coordinate by tol_coord or more AND the
    stationarity residual (recomputed from scratch, not from the running
    state) is below tol_kkt.  Coefficients may take either sign.
    """
    op = pair.a_tilde
    p = op.n_cols
    if weights.values.size != p:
        raise ValueError("weights length must match operator columns")
    if x0 is None:
        x = np.zeros(p)
    else:
        x = np.array(x0, dtype=np.float64)
        if x.shape != (p,) or not np.all(np.isfinite(x)):
            raise ValueError("x0 must be a finite vector of length p")

    thresholds = config.gamma * weights.values / 2.0
    tol_coord = config.tol_coord
    if tol_coord is None:
        tol_coord = 1e-9 * (1.0 + float(np.abs(pair.y_tilde).max(initial=0.0)))

    if isinstance(op, Circulant):
        iterations, converged = _descend_circulant(
            op, pair.y_tilde, x, thresholds, tol_coord, config
        )
    else:
        iterations, converged = _descend_dense(
            op, pair.y_tilde, x, thresholds, tol_coord, config
        )

    final_score = _fresh_score(op, pair.y_tilde, x)
    kkt = _kkt_from_score(final_score, x, thresholds)
    return SolveResult(
        x_hat=x,
        iterations=iterations,
        kkt_residual=kkt,
        objective=objective(pair, weights, config.gamma, x),
        converged=converged,
    )


def _descend_circulant(op, y, x, thresholds, tol_coord, config):
    """CD sweeps tracking the score h = A^T (y - A x); O(p) per coordinate."""
    p = x.size
    gram = op.gram_generator()
    g0 = gram[0]
    if g0 <= 0.0:
        raise DegenerateColumnError(0)
    gram_ext = np.concatenate([gram, gram])
    h = op.adjoint(y)
    if x.any():
        h -= cyclic_convolve(gram, x)

    iterations = 0
    for _ in range(config.max_iter):
        delta_max = 0.0
        for k in range(p):
            xk = x[k]
            z = h[k] + g0 * xk
            xk_new = soft_threshold(z, thresholds[k]) / g0
            delta = xk_new - xk
            if delta != 0.0:
                x[k] = xk_new
                h -= delta * gram_ext[p - k : 2 * p - k]
                delta = abs(delta)
                if delta > delta_max:
                    delta_max = delta
        iterations += 1
        if delta_max < tol_coord:
            # judge convergence on a drift-free score, and keep it
            h = _fresh_score(op, y, x)
            if _kkt_from_score(h, x, thresholds) < config.tol_kkt:
                return iterations, True
    return iterations, False


def _descend_dense(op, y, x, thresholds, tol_coord, config):
    """CD sweeps tracking the residual r = y - A x; O(n) per coordinate."""
    p = x.size
    a = np.asfortranarray(op.dense)
    norms_sq = np.einsum("ij,ij->j", a, a)
    zero_cols = np.flatnonzero(norms_sq == 0.0)
    if zero_cols.size:
        raise DegenerateColumnError(int(zero_cols[0]))
    r = y - a @ x if x.any() else y.copy()

    iterations = 0
    for _ in range(config.max_iter):
        delta_max = 0.0
        for k in range(p):
            col = a[:, k]
            xk = x[k]
            z = col @ r + norms_sq[k] * xk
            xk_new = soft_threshold(z, thresholds[k]) / norms_sq[k]
            delta = xk_new - xk
            if delta != 0.0:
                x[k] = xk_new
                r -= delta * col
                delta = abs(delta)
                if delta > delta_max:
                    delta_max = delta
        iterations += 1
        if delta_max < tol_coord:
            if _kkt_from_score(_fresh_score(op, y, x), x, thresholds) < config.tol_kkt:
                return iterations, True
            r = y - a @ x
    return iterations, False


def oracle_least_squares(
    pair: SurrogatePair, support, rank_tol: float = 1e-10
) -> np.ndarray:
    """Least squares restricted to a known support, zero elsewhere."""
    support = np.asarray(support, dtype=np.int64)
    if support.ndim != 1 or support.size == 0:
        raise ValueError("support must be a nonempty index vector")
    if support.size != np.unique(support).size:
        raise ValueError("support must not repeat indices")
    p = pair.a_tilde.n_cols
    if support.min() < 0 or support.max() >= p:
        raise ValueError("support indices out of range")
    cols = pair.a_tilde.columns(support)
    sings = np.linalg.svd(cols, compute_uv=False)
    if sings[-1] <= rank_tol * sings[0]:
        raise SingularDesignError(float(sings[-1]), float(sings[0]))
    coef, *_ = np.linalg.lstsq(cols, pair.y_tilde, rcond=None)
    x = np.zeros(p)
    x[support] = coef
    return x


def two_step(
    first_stage: np.ndarray, pair: SurrogatePair, support_eps: float = 1e-9
) -> tuple[np.ndarray, np.ndarray]:
    """Refit least squares on the detected support of a first-stage estimate."""
    first_stage = np.asarray(first_stage, dtype=np.float64)
    support = np.flatnonzero(np.abs(first_stage) > support_eps)
    if support.size == 0:
        return support, np.zeros(first_stage.size)
    return support, oracle_least_squares(pair, support)
