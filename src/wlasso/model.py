"""Ground-truth signals, Poisson observations, and the linear operators they share.

Two operator classes share one surface (apply, adjoint, gram): Dense stores
a matrix M and is the operator (M - shift 11^T) / scale, applied as M x minus
a rank-one correction and never formed, so the Bernoulli surrogate needs no
copy of its 0/1 draw; Circulant stores only its generator column c, with
entry (l, k) equal to c[(l - k) mod p], plus gram_generator.  Each owns its
Gram matrix A^T A, computed once per operator: a zero-copy strided view for a
circulant, a p x p matrix, guarded at GRAM_MAX_P columns, for a dense design;
a dense design may say how to build its Gram from something cheaper than the
product, and a shifted one must, as the Bernoulli surrogate does from the 0/1
co-occurrence counts.  Only diagnostics.gram_deviation branches on the class,
to read a circulant Gram from its generator without allocating p x p floats.

A SurrogatePair holds its observations read-only and caches the score at zero,
aty = A^T y, and yty = y^T y, so the solver's every score, aty - A^T A x, comes
from Gram rows, its residual norm from those two numbers and the score, and its
least-squares refit on a support from the Gram block of that support.

Every circulant product goes through cyclic_convolve (cyclic_correlate reverses
one operand and calls it).  The DFT diagonalises a circulant matrix, so a dense
product is an O(p log p) real FFT.  When one operand has at most
SUPPORT_SUM_MAX nonzeros, as the parent counts and an s-sparse signal usually
do, the product is instead summed over that support in O(K p).  The support
sum is sign-exact, the FFT is not: its round-off leaves entries that are
exactly zero slightly negative.  So the Poisson intensity, apply(A, x*,
exact=True), always takes the support sum, whatever the sizes, because
sample_poisson rejects a negative intensity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
# numpy loads these on first use.  Loading them with wlasso puts them in every
# process forked after the import, so a fresh pool worker's first trial does
# not spend tens of milliseconds importing them.
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .errors import MemoryGuardError, ParameterError


def check_length(name: str, value: int) -> None:
    if value > MAX_LENGTH:
        raise ParameterError(name, f"must be <= {MAX_LENGTH}, numpy's largest array length", value)


def check_seed(seed: int, name: str = "seed") -> int:
    """A master seed must be >= 0, as numpy's SeedSequence requires."""
    if seed < 0:
        raise ParameterError(name, "must be >= 0", seed)
    return seed


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
            raise ParameterError("p", "must be >= 1", self.p)
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


def check_signal(p: int, s: int, target_l1: float) -> None:
    """Raise the ParameterError make_sparse_signal would raise for p, s and target_l1."""
    check_length("p", p)
    if not 0 <= s <= p:
        raise ParameterError("s", f"must lie in [0, p = {p}]", s)
    if s == 0:
        if target_l1 != 0:
            raise ParameterError("target_l1", "must be 0 when s is 0", target_l1)
    elif not 0 < target_l1 < math.inf:
        raise ParameterError("target_l1", "must be positive and finite when s > 0", target_l1)


def make_sparse_signal(
    p: int, s: int, target_l1: float, rng: np.random.Generator
) -> SparseSignal:
    """Draw a uniform support of size s and spread target_l1 over it.

    Values follow the decaying series exp(-j/s) + 0.2, j = 0..s-1, rescaled so
    they sum to target_l1; the spread keeps both large and near-threshold
    coordinates present in every draw.
    """
    check_signal(p, s, target_l1)
    if s == 0:
        return SparseSignal(p, np.empty(0, np.int64), np.empty(0), 0.0)
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


SUPPORT_SUM_MAX = 64
GRAM_MAX_P = 4096
MAX_LENGTH = int(np.iinfo(np.intp).max)  # numpy's largest array length


def cyclic_convolve(a: np.ndarray, b: np.ndarray, exact: bool = False) -> np.ndarray:
    """out[j] = sum_k a[(j - k) mod p] b[k] for equal-length vectors.

    Sums b[k] * roll(a, k) over the support of the sparser operand when it has
    at most SUPPORT_SUM_MAX nonzeros, or at any size when exact is set, at
    O(nnz p).  That sum is sign-exact: nonnegative operands give a nonnegative
    result, zero wherever no shift meets the support.  Otherwise multiplies
    the real FFT spectra.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    p = a.size
    if b.size != p:
        raise ValueError("length mismatch")
    if np.count_nonzero(a) < np.count_nonzero(b):
        a, b = b, a
    support = np.flatnonzero(b)
    if support.size > SUPPORT_SUM_MAX and not exact:
        return np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), p)
    doubled = np.concatenate((a, a))  # roll(a, k) is doubled[p - k : 2p - k]
    out = np.zeros(p)
    for k, bk in zip(support.tolist(), b[support].tolist()):
        out += bk * doubled[p - k : 2 * p - k]
    return out


def cyclic_correlate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[k] = sum_l a[(l - k) mod p] b[l] for equal-length vectors."""
    rev = np.empty_like(np.asarray(a, dtype=np.float64))
    rev[0] = a[0]
    rev[1:] = a[:0:-1]
    return cyclic_convolve(rev, b)


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

    def apply(self, x: np.ndarray, exact: bool = False) -> np.ndarray:
        return cyclic_convolve(self.generator, x, exact)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return cyclic_correlate(self.generator, y)

    def gram_generator(self) -> np.ndarray:
        """Generator of A^T A, which is circulant too (cyclic autocorrelation)."""
        return cyclic_correlate(self.generator, self.generator)

    @cached_property
    def gram(self) -> np.ndarray:
        """A^T A as a read-only p x p view whose row k is roll(gram_generator(), k)."""
        doubled = np.tile(self.gram_generator(), 2)  # roll(g, k) is doubled[p - k : 2p - k]
        step = doubled.strides[0]
        return np.lib.stride_tricks.as_strided(
            doubled[self.n_cols :], shape=(self.n_cols,) * 2, strides=(-step, step),
            writeable=False,
        )


@dataclass(eq=False)
class Dense:
    """Operator (dense - shift) / scale, applied from the stored matrix and never
    formed; gram_from, if given, builds A^T A of the operator."""

    dense: np.ndarray
    gram_from: Callable[[], np.ndarray] | None = field(default=None, repr=False)
    shift: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        self.dense = np.asarray(self.dense, dtype=np.float64)
        if self.dense.ndim != 2:
            raise ValueError("dense payload must be a matrix")
        if not (math.isfinite(self.shift) and 0.0 < self.scale < math.inf):
            raise ValueError("shift must be finite and scale positive and finite")

    @property
    def n_rows(self) -> int:
        return self.dense.shape[0]

    @property
    def n_cols(self) -> int:
        return self.dense.shape[1]

    def apply(self, x: np.ndarray, exact: bool = False) -> np.ndarray:
        # an unshifted matrix product is sign-exact already
        return self._shifted(self.dense @ x, x)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self._shifted(self.dense.T @ y, y)

    def _shifted(self, product: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(product - shift * sum(v)) / scale, in place: turns dense @ v or
        dense^T @ v into the operator's product, as 11^T v is sum(v) 1."""
        if self.shift:
            product -= self.shift * v.sum()
        product /= self.scale
        return product

    @cached_property
    def gram(self) -> np.ndarray:
        """A^T A, read-only; refused above GRAM_MAX_P columns.  dense^T dense
        is the Gram of the unshifted, unscaled operator only, so any other
        must say how to build its own."""
        if self.n_cols > GRAM_MAX_P:
            raise MemoryGuardError(
                f"dense gram for p = {self.n_cols} exceeds guard {GRAM_MAX_P}"
            )
        if self.gram_from is not None:
            gram = self.gram_from()
        elif self.shift or self.scale != 1.0:
            raise ValueError("a shifted or scaled dense operator builds its gram from gram_from")
        else:
            gram = self.dense.T @ self.dense
        gram.flags.writeable = False
        return gram


def apply(op: Circulant | Dense, x: np.ndarray, exact: bool = False) -> np.ndarray:
    """A x; exact asks for a sign-exact product, as a Poisson intensity needs."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.n_cols,):
        raise ValueError("x has wrong length")
    return op.apply(x, exact)


def apply_adjoint(op: Circulant | Dense, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (op.n_rows,):
        raise ValueError("y has wrong length")
    return op.adjoint(y)


@dataclass(eq=False)
class SurrogatePair:
    """Recentred design and observations whose Gram expectation is identity.

    Both sensing models reduce to this pair; the solver and the weight
    assumptions only ever see (a_tilde, y_tilde).  y_tilde is a read-only copy,
    so the cached aty cannot go stale.
    """

    a_tilde: Circulant | Dense
    y_tilde: np.ndarray

    def __post_init__(self):
        self.y_tilde = np.array(self.y_tilde, dtype=np.float64)
        if self.y_tilde.shape != (self.a_tilde.n_rows,):
            raise ValueError("y_tilde length must match operator rows")
        if not np.all(np.isfinite(self.y_tilde)):
            raise ValueError("y_tilde must be finite")
        self.y_tilde.flags.writeable = False

    @cached_property
    def aty(self) -> np.ndarray:
        """A_tilde^T y_tilde, read-only: the score at x = 0, shared by every solve."""
        aty = apply_adjoint(self.a_tilde, self.y_tilde)
        aty.flags.writeable = False
        return aty

    @cached_property
    def yty(self) -> float:
        """y_tilde . y_tilde: with aty and the Gram, a solve's residual norm needs no product."""
        return float(self.y_tilde @ self.y_tilde)


def deviation_at_truth(pair: SurrogatePair, x_star: np.ndarray) -> np.ndarray:
    """Correlation of the surrogate residual at the truth with each column.

    This is the vector whose entrywise domination by the weights is the
    coverage assumption behind every estimation guarantee.
    """
    residual = pair.y_tilde - apply(pair.a_tilde, x_star)
    return apply_adjoint(pair.a_tilde, residual)
