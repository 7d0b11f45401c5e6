"""Checks for the assumptions the guarantees rest on, and the bounds they give.

Everything here is measurement on a surrogate pair: Gram deviation,
restricted-eigenvalue floors, weight coverage, the support-screening
condition, and the closed-form error bounds evaluated at measured quantities.
None of it asks which sensing model built the pair.  The RE constant that
assumption_report gives is the one on the cone a weighted-LASSO error lies in,
which opens by WeightVector.penalty_ratio_bound(gamma) and so needs gamma > 2.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import EnumerationGuardError
from .model import Circulant, Dense, SurrogatePair
from .solver import WeightVector, check_gamma


def gram_deviation(op: Circulant | Dense) -> float:
    """max |(A^T A - I)_{k,l}|; the one number behind the RE bound below."""
    if isinstance(op, Circulant):  # every Gram row is a roll of row 0
        g = op.gram[0]
        return max(float(abs(g[0] - 1.0)), float(np.abs(g[1:]).max(initial=0.0)))
    return float(np.abs(op.gram - np.eye(op.n_cols)).max())


RIP_MAX_SUPPORTS = 1_000_000


def rip_lower_bruteforce(op: Circulant | Dense, s: int) -> float:
    """Exact min over |J| = s supports of lambda_min(Gram_J).

    This is the sharpest valid 1 - delta for vectors supported on s
    coordinates; enumeration is guarded, not approximated.
    """
    p = op.n_cols
    if not 1 <= s <= p:
        raise ValueError("need 1 <= s <= p")
    n_supports = math.comb(p, s)
    if n_supports > RIP_MAX_SUPPORTS:
        raise EnumerationGuardError(
            f"C({p},{s}) = {n_supports} supports exceeds guard {RIP_MAX_SUPPORTS}"
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
    """Whether every margin (weight minus |score at the truth|) is >= 0, the
    smallest margin, and an index attaining it; margins can agree to rounding
    on a circulant design, so which index is named can move with rounding."""
    passed: bool
    worst_index: int
    margin: float


def weights_cover(deviation: np.ndarray, weights: WeightVector) -> CoverReport:
    """Do the weights dominate the score at the truth, coordinatewise?

    deviation is that score, pair.score(x_star): a trial computes
    it once and judges each of its weight kinds against it.
    """
    margins = weights.values - np.abs(deviation)
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
    support,
    deviation: np.ndarray,
    weights: WeightVector,
    gamma: float,
    theta_used: float,
    rip_s: Optional[int] = None,
) -> AssumptionReport:
    """The report at the truth x*, given by its support and its score pair.score(x_star)."""
    check_gamma(gamma)
    xi = gram_deviation(pair.a_tilde)
    support = np.asarray(support, dtype=np.int64)

    rip = None if rip_s is None else rip_lower_bruteforce(pair.a_tilde, rip_s)
    re_bound = re_valid = support_pass = support_lhs = support_rhs = None
    if support.size >= 1 and gamma > 2:
        re_bound, re_valid = re_constant_from_xi(
            xi, int(support.size), weights.penalty_ratio_bound(gamma)
        )
        if re_valid and re_bound < 1 and support.size < weights.values.size:
            support_pass, support_lhs, support_rhs = support_condition_check(
                xi, gamma, re_bound, weights, support
            )

    cover = weights_cover(deviation, weights)
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
