"""Checks of the package against dense matrices and raw counts, which it never runs."""
from collections import namedtuple

import numpy as np

from wlasso.bernoulli import sample_bernoulli_matrix
from wlasso.convolution import ConvolutionInstance, sample_parents
from wlasso.model import Circulant, Dense, cyclic_correlate
from wlasso.sensing import surrogate


def dense_matrix(op: Circulant | Dense) -> np.ndarray:
    """The operator as a matrix: entry (l, k) of a circulant is c[(l - k) mod p]."""
    if isinstance(op, Dense):
        return np.array(op.dense)
    p = op.n_cols
    return op.generator[(np.arange(p)[:, None] - np.arange(p)[None, :]) % p]


def ustat_check(inst: ConvolutionInstance) -> float:
    """Max gap between m * (Gram - I) lags of the surrogate design and the
    degenerate pair statistic computed straight from the counts:

      U(d != 0) = sum_u N(u) N(u+d) - m(m-1)/p
      U(0)      = sum_u N(u)^2 - m - m(m-1)/p
    """
    g = surrogate(inst, np.zeros(inst.p)).a_tilde.gram_generator()
    lhs = inst.m * g
    lhs[0] -= inst.m
    counts = inst.counts.astype(np.float64)
    u = cyclic_correlate(counts, counts) - inst.m * (inst.m - 1.0) / inst.p
    u[0] -= inst.m
    return float(np.abs(lhs - u).max())


# Monte Carlo mean of the surrogate Gram against identity
GramExpectationReport = namedtuple(
    "GramExpectationReport", "n_draws max_abs_deviation max_z mean_deviation"
)


def _gram_expectation(draw_inst, n_rows: int, n_draws: int, rng) -> GramExpectationReport:
    """Draws n_draws instances with draw_inst(rng); each has n_rows observations."""
    acc = acc_sq = 0.0
    for _ in range(n_draws):
        at = dense_matrix(surrogate(draw_inst(rng), np.zeros(n_rows)).a_tilde)
        g = at.T @ at
        acc = acc + g
        acc_sq = acc_sq + g * g
    mean = acc / n_draws
    # clamped at 0, so an entry that never varies (the diagonal at q = 0.5)
    # has zero variance and z = 0, not a quotient of round-off
    var = np.maximum(acc_sq / n_draws - mean * mean, 0.0) * n_draws / (n_draws - 1)
    stderr = np.sqrt(var / n_draws)
    dev = mean - np.eye(mean.shape[0])
    z = np.abs(dev) / np.where(stderr > 0, stderr, np.inf)
    return GramExpectationReport(n_draws, float(np.abs(dev).max()), float(z.max()), dev)


def bernoulli_gram_expectation_check(n, p, q, n_draws, rng) -> GramExpectationReport:
    return _gram_expectation(lambda r: sample_bernoulli_matrix(n, p, q, r), n, n_draws, rng)


def convolution_gram_expectation_check(p, m, n_draws, rng) -> GramExpectationReport:
    return _gram_expectation(lambda r: sample_parents(p, m, r), p, n_draws, rng)
