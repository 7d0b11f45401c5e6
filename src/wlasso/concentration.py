"""Poisson concentration bounds for linear statistics R^T (Y - E Y).

With v = sum_l R_l^2 * intensity_l and b = max_l |R_l|:

  bernstein_bound        sqrt(2 v theta) + b theta / 3, one-sided level e^-theta
                         (two-sided 2 e^-theta)
  variance_envelope      (sqrt(b^2 theta / 2) + sqrt(5 b^2 theta / 6 + R2^T Y))^2,
                         an observable bound on v failing with prob <= e^-theta
  empirical_deviation_bound
                         the Bernstein bound evaluated at the envelope, fully
                         observable, two-sided level 3 e^-theta

where R2 is the entrywise square of R.  All three accept scalars or arrays in
the data slot and broadcast.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


def check_theta(theta: float) -> float:
    if not np.isfinite(theta) or theta <= 0:
        raise ParameterError("theta", "must be positive and finite", theta)
    return float(theta)


def bernstein_bound(v, b, theta):
    theta = check_theta(theta)
    v = np.asarray(v, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(v < 0) or np.any(b < 0):
        raise ValueError("v and b must be nonnegative")
    out = np.sqrt(2.0 * v * theta) + b * theta / 3.0
    return out if out.ndim else float(out)


def _envelope_root(b, r2y, theta):
    """(b, theta, sqrt(b^2 theta / 2) + sqrt(5 b^2 theta / 6 + r2y)), checked."""
    theta = check_theta(theta)
    b = np.asarray(b, dtype=np.float64)
    r2y = np.asarray(r2y, dtype=np.float64)
    if np.any(b < 0) or np.any(r2y < 0):
        raise ValueError("b and r2y must be nonnegative")
    return b, theta, np.sqrt(b * b * theta / 2.0) + np.sqrt(5.0 * b * b * theta / 6.0 + r2y)


def variance_envelope(b, r2y, theta):
    _, _, root = _envelope_root(b, r2y, theta)
    out = root * root
    return out if out.ndim else float(out)


def empirical_deviation_bound(b, r2y, theta):
    b, theta, root = _envelope_root(b, r2y, theta)
    out = root * np.sqrt(2.0 * theta) + b * theta / 3.0
    return out if out.ndim else float(out)


@dataclass
class TailReport:
    """Observed failure fractions for the three bounds at one theta."""

    n_trials: int
    theta: float
    v_true: float
    b: float
    bernstein: float
    failure_rate_bernstein: float
    failure_rate_empirical: float
    failure_rate_envelope: float


def tail_coverage_test(
    r, intensity, theta: float, n_trials: int, rng: np.random.Generator
) -> TailReport:
    """Monte Carlo failure rates of the bounds on |R^T (Y - intensity)|.

    Draws Y ~ Poisson(intensity) n_trials times and counts how often the
    deviation exceeds (a) the intensity-based Bernstein bound, (b) the
    observable empirical bound, and how often the true v exceeds its envelope.
    """
    theta = check_theta(theta)
    r = np.asarray(r, dtype=np.float64)
    lam = np.asarray(intensity, dtype=np.float64)
    if r.shape != lam.shape or r.ndim != 1:
        raise ValueError("r and intensity must be vectors of equal length")
    bad = ~(np.isfinite(lam) & (lam >= 0))
    if bad.any():
        raise ParameterError("intensity", "must be nonnegative and finite", lam[bad][0])
    if n_trials < 1:
        raise ParameterError("n_trials", "must be >= 1", n_trials)

    r2 = r * r
    v_true = float(r2 @ lam)
    b = float(np.abs(r).max(initial=0.0))
    fixed = bernstein_bound(v_true, b, theta)

    exceed_fixed = 0
    exceed_emp = 0
    exceed_env = 0
    chunk = max(1, int(5e6) // max(1, lam.size))
    done = 0
    while done < n_trials:
        take = min(chunk, n_trials - done)
        y = rng.poisson(lam, size=(take, lam.size))
        dev = np.abs((y - lam) @ r)
        r2y = y @ r2
        exceed_fixed += int(np.count_nonzero(dev > fixed))
        exceed_emp += int(
            np.count_nonzero(dev > empirical_deviation_bound(b, r2y, theta))
        )
        exceed_env += int(np.count_nonzero(v_true > variance_envelope(b, r2y, theta)))
        done += take

    return TailReport(
        n_trials=n_trials,
        theta=theta,
        v_true=v_true,
        b=b,
        bernstein=float(fixed),
        failure_rate_bernstein=exceed_fixed / n_trials,
        failure_rate_empirical=exceed_emp / n_trials,
        failure_rate_envelope=exceed_env / n_trials,
    )
