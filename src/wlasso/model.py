"""Ground-truth signals, Poisson observations, and the linear operators they share.

Two operator classes share one surface (apply, adjoint, columns, materialize):
Dense stores the matrix, Circulant only its generator column c, with entry
(l, k) equal to c[(l - k) mod p].  Callers branch on the class only where the
algorithm itself differs: the coordinate-descent loop, which runs on the Gram
generator of a circulant design, and the Gram lookups in diagnostics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MemoryGuardError


def trial_rng(master_seed: int, trial_index: int = 0) -> np.random.Generator:
    """Independent stream for one trial, a pure function of (seed, index).

    Streams for distinct indices never depend on each other or on the order
    they are created in, so parallel trials fold deterministically.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=(trial_index,))
    return np.random.default_rng(seq)


@dataclass(eq=False)
class SparseSignal:
    """Nonnegative s-sparse vector with a pinned total mass."""

    p: int
    support: np.ndarray
    values: np.ndarray
    target_l1: float

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.support.ndim != 1 or self.values.shape != self.support.shape:
            raise ValueError("support and values must be aligned 1-d arrays")
        if self.support.size:
            if np.any(np.diff(self.support) <= 0):
                raise ValueError("support must be strictly increasing")
            if self.support[0] < 0 or self.support[-1] >= self.p:
                raise ValueError("support indices out of range")
            if np.any(self.values <= 0) or not np.all(np.isfinite(self.values)):
                raise ValueError("values must be positive and finite")
        total = float(self.values.sum())
        if abs(total - self.target_l1) > 1e-12 * max(1.0, abs(self.target_l1)):
            raise ValueError("values must sum to target_l1")

    @property
    def s(self) -> int:
        return int(self.support.size)

    def dense(self) -> np.ndarray:
        x = np.zeros(self.p)
        x[self.support] = self.values
        return x


def make_sparse_signal(
    p: int, s: int, target_l1: float, rng: np.random.Generator
) -> SparseSignal:
    """Draw a uniform support of size s and spread target_l1 over it.

    Values follow the decaying series exp(-j/s) + 0.2, j = 0..s-1, rescaled so
    they sum to target_l1; the spread keeps both large and near-threshold
    coordinates present in every draw.
    """
    if not 0 <= s <= p:
        raise ValueError("need 0 <= s <= p")
    if s == 0:
        if target_l1 != 0:
            raise ValueError("s = 0 requires target_l1 = 0")
        return SparseSignal(p, np.empty(0, np.int64), np.empty(0), 0.0)
    if target_l1 <= 0:
        raise ValueError("target_l1 must be positive when s > 0")
    support = np.sort(rng.choice(p, size=s, replace=False))
    raw = np.exp(-np.arange(s) / s) + 0.2
    values = raw * (target_l1 / raw.sum())
    return SparseSignal(p, support, values, float(target_l1))


@dataclass(eq=False)
class PoissonObservations:
    """Observed counts; intensity_dim is the row count of the sensing operator."""

    counts: np.ndarray
    intensity_dim: int

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 1 or self.counts.size != self.intensity_dim:
            raise ValueError("counts must be a vector of length intensity_dim")
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")


def sample_poisson(intensity, rng: np.random.Generator) -> PoissonObservations:
    """Independent Poisson draws, one per intensity entry."""
    lam = np.asarray(intensity, dtype=np.float64)
    if lam.ndim != 1:
        raise ValueError("intensity must be a vector")
    if np.any(lam < 0) or not np.all(np.isfinite(lam)):
        raise ValueError("intensity must be nonnegative and finite")
    counts = rng.poisson(lam)
    return PoissonObservations(np.asarray(counts, np.int64), lam.size)


def cyclic_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[j] = sum_k a[(j - k) mod p] b[k] for equal-length vectors."""
    p = a.size
    if b.size != p:
        raise ValueError("length mismatch")
    full = np.convolve(a, b)
    out = full[:p].copy()
    out[: p - 1] += full[p:]
    return out


def cyclic_correlate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[k] = sum_l a[(l - k) mod p] b[l] for equal-length vectors."""
    rev = np.empty_like(np.asarray(a, dtype=np.float64))
    rev[0] = a[0]
    rev[1:] = a[:0:-1]
    return cyclic_convolve(rev, np.asarray(b, dtype=np.float64))


@dataclass(eq=False)
class Circulant:
    """p x p circulant operator given by its generator column c."""

    generator: np.ndarray

    def __post_init__(self):
        self.generator = np.asarray(self.generator, dtype=np.float64)
        if self.generator.ndim != 1 or self.generator.size < 1:
            raise ValueError("generator must be a nonempty vector")

    @property
    def n_rows(self) -> int:
        return self.generator.size

    n_cols = n_rows

    def apply(self, x: np.ndarray) -> np.ndarray:
        return cyclic_convolve(self.generator, x)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return cyclic_correlate(self.generator, y)

    def columns(self, index) -> np.ndarray:
        return np.stack([np.roll(self.generator, k) for k in index], axis=1)

    def materialize(self, max_p: int = 4096) -> np.ndarray:
        """Dense copy, guarded against p x p blow-up."""
        p = self.generator.size
        if p > max_p:
            raise MemoryGuardError(f"refusing to materialize p = {p} > {max_p}")
        idx = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p
        return self.generator[idx]

    def gram_generator(self) -> np.ndarray:
        """Generator of A^T A, which is circulant too (cyclic autocorrelation)."""
        return cyclic_correlate(self.generator, self.generator)


@dataclass(eq=False)
class Dense:
    """Operator stored as its full matrix."""

    dense: np.ndarray

    def __post_init__(self):
        self.dense = np.asarray(self.dense, dtype=np.float64)
        if self.dense.ndim != 2:
            raise ValueError("dense payload must be a matrix")

    @property
    def n_rows(self) -> int:
        return self.dense.shape[0]

    @property
    def n_cols(self) -> int:
        return self.dense.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.dense @ x

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self.dense.T @ y

    def columns(self, index) -> np.ndarray:
        return self.dense[:, index]

    def materialize(self, max_p: int = 4096) -> np.ndarray:
        """Copy of the stored matrix; nothing new is allocated to guard."""
        return np.array(self.dense)


def apply(op: Circulant | Dense, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.n_cols,):
        raise ValueError("x has wrong length")
    return op.apply(x)


def apply_adjoint(op: Circulant | Dense, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (op.n_rows,):
        raise ValueError("y has wrong length")
    return op.adjoint(y)


@dataclass(eq=False)
class SurrogatePair:
    """Recentred design and observations whose Gram expectation is identity.

    Both sensing models reduce to this pair; the solver and the weight
    assumptions only ever see (a_tilde, y_tilde).
    """

    a_tilde: Circulant | Dense
    y_tilde: np.ndarray

    def __post_init__(self):
        self.y_tilde = np.asarray(self.y_tilde, dtype=np.float64)
        if self.y_tilde.shape != (self.a_tilde.n_rows,):
            raise ValueError("y_tilde length must match operator rows")
        if not np.all(np.isfinite(self.y_tilde)):
            raise ValueError("y_tilde must be finite")


def deviation_at_truth(pair: SurrogatePair, x_star: np.ndarray) -> np.ndarray:
    """Correlation of the surrogate residual at the truth with each column.

    This is the vector whose entrywise domination by the weights is the
    coverage assumption behind every estimation guarantee.
    """
    residual = pair.y_tilde - apply(pair.a_tilde, x_star)
    return apply_adjoint(pair.a_tilde, residual)
