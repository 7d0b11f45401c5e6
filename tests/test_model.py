"""Signals, Poisson sampling, circulant algebra, and surrogate containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlasso.errors import MemoryGuardError
from wlasso.model import (
    Circulant,
    Dense,
    SparseSignal,
    SurrogatePair,
    apply,
    apply_adjoint,
    cyclic_convolve,
    cyclic_correlate,
    deviation_at_truth,
    make_sparse_signal,
    sample_poisson,
    trial_rng,
)

finite_vecs = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    min_size=1,
    max_size=24,
)


def brute_convolve(a, b):
    p = len(a)
    out = np.zeros(p)
    for k in range(p):
        for j in range(p):
            out[k] += a[j] * b[(k - j) % p]
    return out


def brute_correlate(a, b):
    p = len(a)
    out = np.zeros(p)
    for k in range(p):
        for j in range(p):
            out[k] += a[j] * b[(j + k) % p]
    return out


class TestTrialRng:
    def test_same_pair_same_stream(self):
        a = trial_rng(7, 3).random(5)
        b = trial_rng(7, 3).random(5)
        assert np.array_equal(a, b)

    def test_distinct_trials_distinct_streams(self):
        a = trial_rng(7, 0).random(5)
        b = trial_rng(7, 1).random(5)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_distinct_streams(self):
        a = trial_rng(1, 0).random(5)
        b = trial_rng(2, 0).random(5)
        assert not np.array_equal(a, b)

    def test_order_independent(self):
        # trial 41 must not depend on whether earlier trials were drawn
        direct = trial_rng(9, 41).random(4)
        for i in range(41):
            trial_rng(9, i).random(4)
        again = trial_rng(9, 41).random(4)
        assert np.array_equal(direct, again)


class TestSparseSignal:
    def test_make_signal_contract(self):
        sig = make_sparse_signal(p=50, s=5, target_l1=30.0, rng=trial_rng(0))
        assert sig.p == 50 and sig.s == 5
        assert np.all(np.diff(sig.support) > 0)
        assert np.all(sig.values > 0)
        assert abs(sig.values.sum() - 30.0) <= 1e-12 * 30.0
        dense = sig.dense()
        assert dense.shape == (50,)
        assert np.array_equal(np.flatnonzero(dense), sig.support)
        big = make_sparse_signal(p=5000, s=5, target_l1=100.0, rng=trial_rng(1))
        assert big.support.size == 5
        assert abs(big.values.sum() - 100.0) <= 1e-12 * 100.0

    def test_make_signal_deterministic(self):
        a = make_sparse_signal(20, 3, 10.0, trial_rng(4))
        b = make_sparse_signal(20, 3, 10.0, trial_rng(4))
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.values, b.values)

    def test_empty_signal(self):
        sig = make_sparse_signal(10, 0, 0.0, trial_rng(0))
        assert sig.s == 0
        assert np.all(sig.dense() == 0)

    def test_empty_signal_needs_zero_mass(self):
        with pytest.raises(ValueError):
            make_sparse_signal(10, 0, 5.0, trial_rng(0))

    def test_rejects_unsorted_support(self):
        with pytest.raises(ValueError):
            SparseSignal(p=10, support=np.array([3, 1]), values=np.array([1.0, 1.0]), target_l1=2.0)

    def test_rejects_duplicate_support(self):
        with pytest.raises(ValueError):
            SparseSignal(p=10, support=np.array([2, 2]), values=np.array([1.0, 1.0]), target_l1=2.0)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            SparseSignal(p=10, support=np.array([1, 2]), values=np.array([1.0, -1.0]), target_l1=0.0)

    def test_rejects_mass_mismatch(self):
        with pytest.raises(ValueError):
            SparseSignal(p=10, support=np.array([1]), values=np.array([1.0]), target_l1=2.0)


class TestPoisson:
    def test_deterministic(self):
        lam = np.array([1.0, 5.0, 0.0, 2.5])
        a = sample_poisson(lam, trial_rng(11))
        b = sample_poisson(lam, trial_rng(11))
        assert np.array_equal(a.counts, b.counts)
        assert a.intensity_dim == lam.size

    def test_zero_intensity_zero_counts(self):
        obs = sample_poisson(np.zeros(8), trial_rng(0))
        assert np.all(obs.counts == 0)

    def test_mean_tracks_intensity(self):
        lam = np.full(20000, 3.0)
        obs = sample_poisson(lam, trial_rng(1))
        assert abs(obs.counts.mean() - 3.0) < 0.1

    def test_mean_within_three_sigma_at_scale(self):
        lam = np.full(100_000, 4.0)
        obs = sample_poisson(lam, trial_rng(7))
        assert abs(obs.counts.mean() - 4.0) <= 3.0 * np.sqrt(4.0 / 100_000)

    def test_zero_count_frequency_matches_pmf(self):
        lam = np.full(100_000, 2.0)
        obs = sample_poisson(lam, trial_rng(8))
        p0 = np.exp(-2.0)
        se = np.sqrt(p0 * (1.0 - p0) / 100_000)
        assert abs(np.mean(obs.counts == 0) - p0) <= 3.0 * se

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            sample_poisson(np.array([1.0, -0.5]), trial_rng(0))


class TestCirculantAlgebra:
    @given(finite_vecs, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_convolve_matches_index_formula(self, a, seed):
        a = np.asarray(a)
        b = trial_rng(seed).normal(size=a.size)
        assert np.allclose(cyclic_convolve(a, b), brute_convolve(a, b), atol=1e-9)

    @given(finite_vecs, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_correlate_matches_index_formula(self, a, seed):
        a = np.asarray(a)
        b = trial_rng(seed).normal(size=a.size)
        assert np.allclose(cyclic_correlate(a, b), brute_correlate(a, b), atol=1e-9)

    def test_materialize_index_rule(self):
        c = trial_rng(2).normal(size=7)
        op = Circulant(c)
        mat = op.materialize()
        for i in range(7):
            for j in range(7):
                assert mat[i, j] == c[(i - j) % 7]

    def test_apply_and_adjoint_match_dense(self):
        rng = trial_rng(3)
        c = rng.normal(size=12)
        op = Circulant(c)
        mat = op.materialize()
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        assert np.allclose(apply(op, x), mat @ x, atol=1e-12)
        assert np.allclose(apply_adjoint(op, y), mat.T @ y, atol=1e-12)

    def test_gram_generator_is_gram_column(self):
        c = trial_rng(4).normal(size=9)
        op = Circulant(c)
        mat = op.materialize()
        assert np.allclose(op.gram_generator(), (mat.T @ mat)[:, 0], atol=1e-12)

    def test_materialize_guard(self):
        op = Circulant(np.ones(100))
        with pytest.raises(MemoryGuardError):
            op.materialize(max_p=50)


class TestOperatorValidation:
    def test_exactly_one_payload(self):
        with pytest.raises(TypeError):
            Circulant()
        with pytest.raises(TypeError):
            Dense()
        with pytest.raises(ValueError):
            Circulant(np.empty(0))

    def test_kind_payload_mismatch(self):
        with pytest.raises(ValueError):
            Circulant(np.eye(2))
        with pytest.raises(ValueError):
            Dense(np.ones(3))

    def test_columns_match_materialized(self):
        rng = trial_rng(5)
        circ = Circulant(rng.normal(size=8))
        dense = Dense(circ.materialize())
        idx = np.array([0, 3, 7])
        assert np.array_equal(circ.columns(idx), circ.materialize()[:, idx])
        assert np.array_equal(dense.columns(idx), circ.materialize()[:, idx])

    def test_shapes(self):
        op = Dense(np.ones((4, 6)))
        assert op.n_rows == 4 and op.n_cols == 6
        circ = Circulant(np.ones(5))
        assert circ.n_rows == 5 and circ.n_cols == 5


class TestSurrogatePair:
    def test_rejects_length_mismatch(self):
        op = Dense(np.ones((3, 4)))
        with pytest.raises(ValueError):
            SurrogatePair(a_tilde=op, y_tilde=np.ones(5))

    def test_deviation_matches_dense_formula(self):
        rng = trial_rng(6)
        mat = rng.normal(size=(10, 7))
        pair = SurrogatePair(
            a_tilde=Dense(mat),
            y_tilde=rng.normal(size=10),
        )
        x = rng.normal(size=7)
        want = mat.T @ (pair.y_tilde - mat @ x)
        assert np.allclose(deviation_at_truth(pair, x), want, atol=1e-12)
