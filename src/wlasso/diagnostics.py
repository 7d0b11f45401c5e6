"""Checks for the assumptions the guarantees rest on, and the bounds they give.

Everything here is measurement: Gram deviation, restricted-eigenvalue floors,
weight coverage, the support-screening condition, and the closed-form error
bounds evaluated at measured quantities.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from . import bernoulli as _bernoulli
from . import convolution as _convolution
from .errors import EnumerationGuardError, MemoryGuardError
from .model import Circulant, Dense, SurrogatePair, cyclic_correlate, deviation_at_truth
from .solver import WeightVector, check_gamma


def gram_deviation(op: Circulant | Dense) -> float:
    """max |(A^T A - I)_{k,l}|; the one number behind the RE bound below."""
    if isinstance(op, Circulant):  # every Gram row is a roll of row 0
        g = op.gram_generator()
        return max(float(abs(g[0] - 1.0)), float(np.abs(g[1:]).max(initial=0.0)))
    return float(np.abs(op.gram - np.eye(op.n_cols)).max())


def rip_lower_bruteforce(
    op: Circulant | Dense, s: int, max_supports: int = 1_000_000
) -> float:
    """Exact min over |J| = s supports of lambda_min(Gram_J).

    This is the sharpest valid 1 - delta for vectors supported on s
    coordinates; enumeration is guarded, not approximated.
    """
    p = op.n_cols
    if not 1 <= s <= p:
        raise ValueError("need 1 <= s <= p")
    n_supports = math.comb(p, s)
    if n_supports > max_supports:
        raise EnumerationGuardError(
            f"C({p},{s}) = {n_supports} supports exceeds guard {max_supports}"
        )
    gram = op.gram
    if s == 1:
        return float(np.min(gram.diagonal()))
    best = np.inf
    for support in itertools.combinations(range(p), s):
        idx = np.asarray(support)
        lam = np.linalg.eigvalsh(gram[np.ix_(idx, idx)])[0]
        if lam < best:
            best = float(lam)
    return best


def re_constant_from_xi(xi: float, s: int, c0: float) -> tuple[float, bool]:
    """delta = (1 + 2 c0) xi s, valid as an RE constant iff s (1 + 2 c0) < 1/xi."""
    if xi < 0 or s < 1 or c0 < 0:
        raise ValueError("need xi >= 0, s >= 1, c0 >= 0")
    delta = float((1.0 + 2.0 * c0) * xi * s)
    valid = bool(s * (1.0 + 2.0 * c0) < (math.inf if xi == 0 else 1.0 / xi))
    return delta, valid


@dataclass
class CoverReport:
    passed: bool
    worst_index: int
    margin: float


def weights_cover(
    pair: SurrogatePair, x_star, weights: WeightVector
) -> CoverReport:
    """Do the weights dominate the score at the truth, coordinatewise?"""
    margins = weights.values - np.abs(deviation_at_truth(pair, x_star))
    worst = int(np.argmin(margins))
    return CoverReport(
        passed=bool(margins[worst] >= 0.0), worst_index=worst, margin=float(margins[worst])
    )


def support_condition_check(
    xi: float,
    gamma: float,
    delta_s0: float,
    weights: WeightVector,
    support,
) -> tuple[bool, float, float]:
    """Screening condition: when it holds (and the weights cover), the
    weighted solution puts no mass outside the true support.

    lhs = xi * (2 gamma / (1 - delta)) * sqrt(s * sum_{k in S} d_k^2)
    rhs = (gamma / 2 - 1) * min_{k not in S} d_k
    """
    if gamma <= 2:
        raise ValueError("screening needs gamma > 2")
    if not 0.0 <= delta_s0 < 1.0:
        raise ValueError("need 0 <= delta_s0 < 1")
    if xi < 0:
        raise ValueError("need xi >= 0")
    support = np.asarray(support, dtype=np.int64)
    p = weights.values.size
    if support.size == 0 or support.size >= p:
        raise ValueError("support must be nonempty and proper")
    mask = np.zeros(p, dtype=bool)
    mask[support] = True
    s = int(support.size)
    lhs = float(xi) * (2.0 * gamma / (1.0 - delta_s0)) * math.sqrt(
        s * float(np.sum(weights.values[mask] ** 2))
    )
    rhs = (gamma / 2.0 - 1.0) * float(weights.values[~mask].min())
    return bool(lhs < rhs), lhs, rhs


@dataclass
class ErrorBounds:
    """Closed-form bounds at measured (gamma, delta, weights, support).

    l1/l2/linf bound the corresponding norms of x_hat - x*; ls_oracle_sq
    bounds the squared l2 error of the support-oracle least squares;
    prediction_sq bounds the squared design-side error of the weighted
    solution.  linf doubles as the exact-support margin: coordinates of x*
    larger than it are guaranteed detected.
    """

    l2: float
    l1: float
    linf: float
    ls_oracle_sq: float
    prediction_sq: float


def theoretical_l2_bound(
    gamma: float, delta_s0: float, weights: WeightVector, support
) -> ErrorBounds:
    check_gamma(gamma)
    if not 0.0 <= delta_s0 < 1.0:
        raise ValueError("need 0 <= delta_s0 < 1")
    support = np.asarray(support, dtype=np.int64)
    if support.size == 0:
        return ErrorBounds(0.0, 0.0, 0.0, 0.0, 0.0)
    s = int(support.size)
    sum_d2 = float(np.sum(weights.values[support] ** 2))
    shrink = 1.0 - delta_s0
    l2 = 2.0 * gamma * math.sqrt(sum_d2) / shrink
    return ErrorBounds(
        l2=l2,
        l1=math.sqrt(s) * l2,
        linf=gamma * weights.max_weight,
        ls_oracle_sq=sum_d2 / shrink**2,
        prediction_sq=8.0 * gamma**2 * sum_d2 / shrink,
    )


def ustat_check(inst: _convolution.ConvolutionInstance, max_p: int = 2048) -> float:
    """Max gap between m * (Gram - I) lags of the surrogate design and the
    degenerate pair statistic computed straight from the counts:

      U(d != 0) = sum_u N(u) N(u+d) - m(m-1)/p
      U(0)      = sum_u N(u)^2 - m - m(m-1)/p
    """
    if inst.p > max_p:
        raise MemoryGuardError(f"ustat check guarded at p <= {max_p}")
    g = _convolution_design(inst).gram_generator()
    lhs = inst.m * g
    lhs[0] -= inst.m
    counts = inst.counts.astype(np.float64)
    u = cyclic_correlate(counts, counts) - inst.m * (inst.m - 1.0) / inst.p
    u[0] -= inst.m
    return float(np.abs(lhs - u).max())


def _convolution_design(inst: _convolution.ConvolutionInstance) -> Circulant:
    """The surrogate design A_tilde; it does not depend on the observations."""
    return _convolution.surrogate_convolution(inst, np.zeros(inst.p)).a_tilde


@dataclass
class GramExpectationReport:
    """Monte Carlo mean of the surrogate Gram against identity."""

    n_draws: int
    max_abs_deviation: float
    max_z: float
    mean_deviation: np.ndarray
    stderr: np.ndarray


def _gram_expectation(
    draw_gram: Callable[[np.random.Generator], np.ndarray],
    n_draws: int,
    rng: np.random.Generator,
    p: int,
) -> GramExpectationReport:
    if n_draws < 2:
        raise ValueError("need n_draws >= 2")
    acc = np.zeros((p, p))
    acc_sq = np.zeros((p, p))
    for _ in range(n_draws):
        g = draw_gram(rng)
        acc += g
        acc_sq += g * g
    mean = acc / n_draws
    var = np.maximum(acc_sq / n_draws - mean * mean, 0.0) * n_draws / (n_draws - 1)
    stderr = np.sqrt(var / n_draws)
    dev = mean - np.eye(p)
    z = np.abs(dev) / np.where(stderr > 0, stderr, np.inf)
    return GramExpectationReport(
        n_draws=n_draws,
        max_abs_deviation=float(np.abs(dev).max()),
        max_z=float(z.max()),
        mean_deviation=dev,
        stderr=stderr,
    )


def bernoulli_gram_expectation_check(
    n: int, p: int, q: float, n_draws: int, rng: np.random.Generator
) -> GramExpectationReport:
    def draw(r: np.random.Generator) -> np.ndarray:
        inst = _bernoulli.sample_bernoulli_matrix(n, p, q, r)
        at = _bernoulli.surrogate_bernoulli(inst, np.zeros(n)).a_tilde.dense
        return at.T @ at

    return _gram_expectation(draw, n_draws, rng, p)


def convolution_gram_expectation_check(
    p: int, m: int, n_draws: int, rng: np.random.Generator
) -> GramExpectationReport:
    def draw(r: np.random.Generator) -> np.ndarray:
        at = _convolution_design(_convolution.sample_parents(p, m, r)).materialize()
        return at.T @ at

    return _gram_expectation(draw, n_draws, rng, p)


@dataclass
class AssumptionReport:
    """Everything `diagnose` reports for one instance."""

    gram_dev: float
    theta_used: float
    rip_lower: Optional[float]
    re_bound: Optional[float]
    re_valid: Optional[bool]
    weights_pass: bool
    weights_margin: float
    weights_worst_index: int
    support_pass: Optional[bool]
    support_lhs: Optional[float]
    support_rhs: Optional[float]

    def to_kv(self) -> dict[str, str]:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, float):
                return f"{v:.10g}"
            return str(v)

        return {f.name: fmt(getattr(self, f.name)) for f in fields(self)}

    def to_text(self) -> str:
        lines = ["assumption report", "-----------------"]
        for key, val in self.to_kv().items():
            lines.append(f"{key} = {val}" if val != "" else f"{key} =")
        return "\n".join(lines) + "\n"


def assumption_report(
    pair: SurrogatePair,
    x_star,
    weights: WeightVector,
    gamma: float,
    theta_used: float,
    rip_s: Optional[int] = None,
) -> AssumptionReport:
    check_gamma(gamma)
    x_star = np.asarray(x_star, dtype=np.float64)
    xi = gram_deviation(pair.a_tilde)
    support = np.flatnonzero(x_star)

    rip = None
    if rip_s is not None:
        rip = rip_lower_bruteforce(pair.a_tilde, rip_s)

    re_bound = re_valid = None
    if support.size >= 1:
        re_bound, re_valid = re_constant_from_xi(xi, int(support.size), 0.0)

    cover = weights_cover(pair, x_star, weights)

    support_pass = support_lhs = support_rhs = None
    if 0 < support.size < weights.values.size and gamma > 2:
        delta = re_bound if (re_valid and re_bound is not None and re_bound < 1) else None
        if delta is not None:
            support_pass, support_lhs, support_rhs = support_condition_check(
                xi, gamma, delta, weights, support
            )
    return AssumptionReport(
        gram_dev=xi,
        theta_used=theta_used,
        rip_lower=rip,
        re_bound=re_bound,
        re_valid=re_valid,
        weights_pass=cover.passed,
        weights_margin=cover.margin,
        weights_worst_index=cover.worst_index,
        support_pass=support_pass,
        support_lhs=support_lhs,
        support_rhs=support_rhs,
    )
