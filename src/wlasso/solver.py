"""Weighted LASSO by cyclic coordinate descent, plus the debiasing estimators.

The objective is ||y_tilde - A_tilde x||_2^2 + gamma * sum_k d_k |x_k| (no 1/2
on the quadratic), so the per-coordinate soft threshold is gamma * d_k / 2.
One loop serves both designs and works in Gram space (glmnet's covariance
updates): it sweeps only a working set W, the support plus the coordinates
whose score breaks their threshold (strong rules, Tibshirani et al. 2012;
Celer, Massias et al. 2018), and tracks the set's scores A^T (y - A x)
through Gram rows gathered onto W, O(|W|) per coordinate update.  Every
drift-free score is aty - x[S] @ gram[S], from the pair's cached aty = A^T y
and the Gram rows of the support S (SurrogatePair.score), and certifies all
p coordinates in one vectorised KKT check before the loop stops.  The
objective and the duality gap come from that score too, with the pair's
cached yty = y^T y, so a solve applies neither the design nor its adjoint.
Since x is zero off W, S is read off W once per iterate, and the score, the
KKT residual and the gap all take it, so only the set's own rule and the
certificate scan all p coordinates.  A solve hands its certified score on
in its result, and a solve started from that result starts from its score.
kkt_check takes the residual route through the design instead, as a check
independent of the solver.  The least-squares refit reads only gram and aty.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, SingularDesignError
from .model import SurrogatePair, apply, apply_adjoint


def check_gamma(gamma: float) -> None:
    if not np.isfinite(gamma) or gamma <= 0:
        raise ParameterError("gamma", "must be positive and finite", gamma)


@dataclass(frozen=True)
class SolverConfig:
    """gamma > 2 is what the guarantees need; smaller values only warn.  Frozen,
    so one config can be shared by every solve at its gamma."""

    gamma: float
    tol_kkt: float = 1e-8
    max_iter: int = 10_000
    support_eps: float = 1e-9  # detected_support's threshold

    def __post_init__(self):
        check_gamma(self.gamma)
        if self.gamma <= 2:
            warnings.warn(
                f"gamma = {self.gamma} is outside the gamma > 2 regime the "
                "guarantees assume",
                UserWarning,
                stacklevel=2,
            )
        if not self.tol_kkt > 0:
            raise ParameterError("tol_kkt", "must be positive", self.tol_kkt)
        if self.max_iter < 1:
            raise ParameterError("max_iter", "must be >= 1", self.max_iter)
        if not self.support_eps >= 0:
            raise ParameterError("support_eps", "must be >= 0", self.support_eps)


@dataclass(eq=False)
class WeightVector:
    """Per-coordinate penalty weights d_k > 0; callers key them by kind."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("weights must be a nonempty vector")
        if np.any(self.values <= 0) or not np.all(np.isfinite(self.values)):
            raise ValueError("weights must be positive and finite")

    @classmethod
    def constant(cls, p: int, value: float) -> "WeightVector":
        return cls(np.full(p, float(value)))

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
    """iterations counts sweeps over the working set; working_set is its final
    size; gap is the duality gap at x_hat: objective minus the dual value at
    the residual scaled into the dual-feasible set, both read off the score.
    score is that drift-free score A^T (y - A x_hat), read-only, the one that
    certified kkt_residual: bit-equal to pair.score(x_hat)."""

    x_hat: np.ndarray
    iterations: int
    kkt_residual: float
    objective: float
    converged: bool
    working_set: int
    gap: float
    score: np.ndarray


def soft_threshold(z: float, t: float) -> float:
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def _objective_and_gap(pair, weights, gamma, x, support, score, thresholds) -> tuple[float, float]:
    """The objective and duality gap at x, from its support S and score h = A^T r alone.

    On the support S, r.y = ||r||^2 + x.h gives ||r||^2 = yty - x_S.aty_S - x_S.h_S.
    The dual point is the residual scaled into the dual-feasible set, s r with
    s = 1 / max(1, max_k |h_k| / t_k), whose dual value is 2 s r.y - s^2 ||r||^2.
    So the gap is (1 - s)^2 ||r||^2 + pen - 2 s x_S.h_S, with no cancellation,
    and each term of pen - 2 s x_S.h_S is nonnegative, since s |h_k| <= t_k.
    """
    xs = x[support]
    xh = float(xs @ score[support])
    rr = max(0.0, pair.yty - float(xs @ pair.aty[support]) - xh)
    pen = float(gamma * np.abs(xs) @ weights.values[support])
    scale = 1.0 / max(1.0, float(np.max(np.abs(score) / thresholds)))
    return rr + pen, (1.0 - scale) ** 2 * rr + pen - 2.0 * scale * xh


def _kkt_from_score(score, x, thresholds, support) -> float:
    """Worst violation of the stationarity conditions, given the score A^T r
    and the support of x.

    Nonzero coordinates must sit exactly on their threshold with the right
    sign; zero coordinates must stay inside it.
    """
    viol = np.abs(score) - thresholds
    viol[support] = np.abs(score[support] - np.sign(x[support]) * thresholds[support])
    return float(viol.max(initial=0.0))


def kkt_check(
    pair: SurrogatePair, weights: WeightVector, gamma: float, x: np.ndarray
) -> float:
    x = np.asarray(x, dtype=np.float64)
    # the residual route, independent of the solver's Gram-space score
    score = apply_adjoint(pair.a_tilde, pair.y_tilde - apply(pair.a_tilde, x))
    return _kkt_from_score(score, x, gamma * weights.values / 2.0, np.flatnonzero(x))


def weighted_lasso(
    pair: SurrogatePair,
    weights: WeightVector,
    config: SolverConfig,
    x0: Optional[np.ndarray | SolveResult] = None,
) -> SolveResult:
    """Minimize the weighted LASSO objective by cyclic coordinate descent.

    Stops once a sweep of the working set moves no coordinate by
    1e-9 * (1 + max|y_tilde|) or more AND the stationarity residual of all p
    coordinates (recomputed from scratch, not from the running state) is below
    tol_kkt; max_iter caps the sweeps.  Coefficients may take either sign.
    The objective and the duality gap are read off that drift-free score and
    the pair's cached aty and yty, so the solve applies no design product.

    x0 is zero by default.  An array x0 is checked to be a finite p-vector,
    and its score is computed.  A SolveResult x0, of an earlier solve on the
    same pair, starts from its x_hat and the score that certified it, so the
    start costs no score; the solve gives the same bits as one started from
    its x_hat.  Every certificate is a fresh score, so a result from another
    pair can cost sweeps but never makes the answer wrong.
    """
    p = pair.a_tilde.n_cols
    if weights.values.size != p:
        raise ValueError("weights length must match operator columns")
    if isinstance(x0, SolveResult):
        x, score = x0.x_hat.copy(), x0.score
        if x.shape != (p,):
            raise ValueError("x0 must be the result of a solve with p columns")
    else:
        x = np.zeros(p) if x0 is None else np.array(x0, dtype=np.float64)
        if x0 is not None and (x.shape != (p,) or not np.all(np.isfinite(x))):
            raise ValueError("x0 must be a finite vector of length p")
        score = pair.score(x)

    thresholds = config.gamma * weights.values / 2.0
    tol_coord = 1e-9 * (1.0 + float(np.abs(pair.y_tilde).max(initial=0.0)))

    iterations, converged, working_set, support, score, kkt = _descend(
        pair, x, score, thresholds, tol_coord, config
    )
    primal, gap = _objective_and_gap(
        pair, weights, config.gamma, x, support, score, thresholds
    )
    score.flags.writeable = False
    return SolveResult(
        x_hat=x,
        iterations=iterations,
        kkt_residual=kkt,
        objective=primal,
        converged=converged,
        working_set=working_set,
        gap=gap,
        score=score,
    )


def _descend(pair, x, h, thresholds, tol_coord, config):
    """CD sweeps over a working set from x and its score h = A^T (y - A x).

    The set W is the support plus the coordinates whose score breaks their
    threshold.  Its coordinates, scores, Gram diagonal and thresholds are
    gathered once per set, and the row gram[k, W] the first time k moves, so
    an update costs O(|W|); off-W scores are never read within a set.  Once
    a sweep of it moves nothing, x[W] is written back, the support is read
    off W (x is zero off it), and a drift-free score on that support checks
    all p coordinates; if any fails, the set is rebuilt from that score.
    h is only read, never written.  Returns the sweeps, whether it
    converged, the set size, and the support, drift-free score and KKT
    residual at the final x.
    """
    gram, diag = pair.a_tilde.gram, pair.diagonal
    iterations = 0
    while True:
        work = _working_set(x, h, thresholds)
        # python floats and an inlined soft_threshold: numpy-scalar arithmetic and a
        # call per coordinate cost more than the update.  hw.item reads one score as
        # a float; hw is updated in place, so score_of stays bound to the live scores.
        xw, dw, lw = x[work].tolist(), diag[work].tolist(), thresholds[work].tolist()
        hw, rows, indices = h[work], [None] * work.size, work.tolist()
        score_of = hw.item
        settled = False
        while not settled and iterations < config.max_iter:
            delta_max = 0.0
            for j, k in enumerate(indices):
                xk, t = xw[j], lw[j]
                z = score_of(j) + dw[j] * xk
                xk_new = (z - t if z > t else z + t if z < -t else 0.0) / dw[j]
                delta = xk_new - xk
                if delta != 0.0:
                    xw[j] = xk_new
                    if rows[j] is None:
                        rows[j] = gram[k][work]
                    hw -= delta * rows[j]
                    delta = abs(delta)
                    if delta > delta_max:
                        delta_max = delta
            iterations += 1
            settled = bool(delta_max < tol_coord)
        xw = np.array(xw)
        x[work] = xw
        support = work[xw != 0.0]
        # judge convergence on a drift-free score over all p, and keep it
        h = pair.score(x, support)
        kkt = _kkt_from_score(h, x, thresholds, support)
        if not settled or kkt < config.tol_kkt:
            return iterations, settled, work.size, support, h, kkt


def _working_set(x, score, thresholds) -> np.ndarray:
    """The support plus the coordinates whose score breaks its threshold."""
    return np.flatnonzero((x != 0.0) | (np.abs(score) > thresholds))


def oracle_least_squares(pair: SurrogatePair, support) -> np.ndarray:
    """Least squares on a known support S, zero elsewhere: gram[S, S] c = aty[S].

    The empty support refits to zero.  Reads only the cached gram and aty, so
    it applies no design product.  Refuses (SingularDesignError) when the block
    has lambda_min <= 1e-12 lambda_max, i.e. column sigma_min / sigma_max <= 1e-6:
    the eigenvalues square the column ratio, and float64 resolves them only to
    about 1e-16 lambda_max.
    """
    support = np.asarray(support, dtype=np.int64)
    if support.ndim != 1:
        raise ValueError("support must be an index vector")
    p = pair.a_tilde.n_cols
    x = np.zeros(p)
    if not support.size:
        return x
    ordered = np.sort(support)  # np.unique would load numpy.ma on its first call
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("support must not repeat indices")
    if support.min() < 0 or support.max() >= p:
        raise ValueError("support indices out of range")
    block = pair.a_tilde.gram[np.ix_(support, support)]
    eigs = np.linalg.eigvalsh(block)
    if eigs[0] <= 1e-12 * eigs[-1]:
        sigma = np.sqrt(np.maximum(eigs, 0.0))
        raise SingularDesignError(float(sigma[0]), float(sigma[-1]))
    x[support] = np.linalg.solve(block, pair.aty[support])
    return x


def detected_support(x: np.ndarray, support_eps: float = SolverConfig.support_eps) -> np.ndarray:
    """Indices of the coordinates of x larger than support_eps in magnitude."""
    return np.flatnonzero(np.abs(x) > support_eps)


def two_step(
    first_stage: np.ndarray, pair: SurrogatePair, support_eps: float = SolverConfig.support_eps
) -> tuple[np.ndarray, np.ndarray]:
    """Refit least squares on the detected support of a first-stage estimate
    (zero when nothing is detected, as oracle_least_squares refits it)."""
    support = detected_support(np.asarray(first_stage, dtype=np.float64), support_eps)
    return support, oracle_least_squares(pair, support)
