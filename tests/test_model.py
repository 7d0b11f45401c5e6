"""Signals, Poisson sampling, circulant algebra, and surrogate containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlasso.model
from wlasso.bernoulli import sample_bernoulli_matrix, surrogate_bernoulli
from wlasso.convolution import sample_parents, sensing_operator
from wlasso.model import (
    SUPPORT_SUM_MAX,
    Circulant,
    Dense,
    SparseSignal,
    SurrogatePair,
    apply,
    apply_adjoint,
    cyclic_convolve,
    cyclic_correlate,
    make_sparse_signal,
    sample_poisson,
    trial_rng,
)
from wlasso.sensing import draw

from reference import dense_matrix

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


def folded_convolve(a, b):
    """Linear convolution folded mod p: O(p^2), fast enough at p = 5000."""
    p = len(a)
    full = np.convolve(a, b)
    out = full[:p].copy()
    out[: p - 1] += full[p:]
    return out


@pytest.fixture()
def rfft_calls(monkeypatch):
    """Counts the real FFTs cyclic_convolve takes."""
    calls = []
    rfft = np.fft.rfft

    def counting(x, *args, **kwargs):
        calls.append(len(x))
        return rfft(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    return calls


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
        assert a.counts.size == lam.size

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

    @pytest.mark.parametrize("p", [2, 3, 97, 1000])
    def test_dense_operands_match_index_formula_on_fft_path(self, p, monkeypatch, rfft_calls):
        # below SUPPORT_SUM_MAX nonzeros a dense operand would take the support sum
        monkeypatch.setattr(wlasso.model, "SUPPORT_SUM_MAX", min(SUPPORT_SUM_MAX, p - 1))
        rng = trial_rng(p)
        a, b = rng.normal(size=p), rng.normal(size=p)
        assert np.allclose(cyclic_convolve(a, b), brute_convolve(a, b), atol=1e-9)
        assert np.allclose(cyclic_correlate(a, b), brute_correlate(a, b), atol=1e-9)
        assert rfft_calls == [p] * 4

    @pytest.mark.parametrize("nnz, fft", [(SUPPORT_SUM_MAX, False), (SUPPORT_SUM_MAX + 1, True)])
    def test_support_sum_up_to_max_nonzeros(self, nnz, fft, rfft_calls):
        p = 5000
        rng = trial_rng(nnz)
        dense = rng.random(p)
        dense[rng.choice(p, size=p // 2, replace=False)] = 0.0
        sparse = np.zeros(p)
        sparse[rng.choice(p, size=nnz, replace=False)] = rng.integers(1, 4, size=nnz)
        for a, b in ((dense, sparse), (sparse, dense)):
            out = cyclic_convolve(a, b)
            assert np.allclose(out, folded_convolve(a, b), atol=1e-9)
        assert bool(rfft_calls) is fft
        if not fft:
            # exact: nonnegative operands, exact zeros where no shift meets the support
            assert np.all(out >= 0)
            assert np.array_equal(out == 0, folded_convolve(1.0 * (a > 0), 1.0 * (b > 0)) == 0)

    def test_exact_product_sums_over_any_support(self, rfft_calls):
        p, nnz = 5000, 3 * SUPPORT_SUM_MAX
        rng = trial_rng(3)
        a, b = np.zeros(p), np.zeros(p)
        a[rng.choice(p, size=nnz, replace=False)] = rng.integers(1, 4, size=nnz)
        b[rng.choice(p, size=nnz, replace=False)] = rng.random(nnz)
        out = cyclic_convolve(a, b, exact=True)
        assert rfft_calls == []
        assert np.allclose(out, folded_convolve(a, b), atol=1e-9)
        assert np.all(out >= 0)
        assert np.array_equal(out == 0, folded_convolve(1.0 * (a > 0), 1.0 * (b > 0)) == 0)
        # Circulant.apply asks for that sum exactly when both operands are nonnegative
        assert np.array_equal(apply(Circulant(a), b), out)
        assert rfft_calls == []
        for neg_a, neg_b in ((-a, b), (a, -b)):
            assert np.allclose(apply(Circulant(neg_a), neg_b), folded_convolve(neg_a, neg_b))
        assert rfft_calls == [p] * 4

    def test_materialize_index_rule(self):
        c = trial_rng(2).normal(size=7)
        mat = dense_matrix(Circulant(c))
        for i in range(7):
            for j in range(7):
                assert mat[i, j] == c[(i - j) % 7]

    def test_apply_and_adjoint_match_dense(self):
        rng = trial_rng(3)
        c = rng.normal(size=12)
        op = Circulant(c)
        mat = dense_matrix(op)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        assert np.allclose(apply(op, x), mat @ x, atol=1e-12)
        assert np.allclose(apply_adjoint(op, y), mat.T @ y, atol=1e-12)


class TestGram:
    @pytest.mark.parametrize("p", [2, 3, 97])
    def test_equals_materialized_product(self, p):
        rng = trial_rng(p)
        circ = Circulant(rng.normal(size=p))
        mat = dense_matrix(circ)
        assert np.allclose(circ.gram, mat.T @ mat, atol=1e-12)
        tall = rng.normal(size=(p + 5, p))
        assert np.allclose(Dense(tall).gram, tall.T @ tall, atol=1e-12)

    @pytest.mark.parametrize("op", [Circulant(np.arange(1.0, 6.0)), Dense(np.ones((4, 3)))])
    def test_cached_and_read_only(self, op):
        assert op.gram is op.gram
        with pytest.raises(ValueError):
            op.gram[0, 0] = 1.0


class TestShiftedDense:
    @pytest.mark.parametrize("q", [0.002, 0.03, 0.5, 0.97, 0.998])
    def test_bernoulli_surrogate_equals_its_materialisation(self, q):
        rng = trial_rng(21)
        for n, p in ((400, 30), (2000, 200)):
            inst = sample_bernoulli_matrix(n, p, q, rng)
            op = surrogate_bernoulli(inst, np.zeros(n)).a_tilde
            mat = dense_matrix(op)
            x, y = rng.normal(size=p), rng.normal(size=n)
            for got, want in ((apply(op, x), mat @ x), (apply_adjoint(op, y), mat.T @ y)):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("shift, scale", [(2.5, 1.0), (0.0, 1.7), (2.5, 1.7)])
    def test_gram_without_gram_from_is_refused(self, shift, scale):
        # dense^T dense would be the Gram of the unshifted matrix, not of the operator
        op = Dense(trial_rng(22).normal(size=(40, 9)), shift=shift, scale=scale)
        with pytest.raises(ValueError, match="gram_from"):
            op.gram

    def test_unshifted_products_keep_their_bits(self):
        rng = trial_rng(23)
        mat = rng.normal(size=(30, 12))
        x, y = rng.normal(size=12), rng.normal(size=30)
        op = Dense(mat)
        assert np.array_equal(apply(op, x), mat @ x)
        assert np.array_equal(apply_adjoint(op, y), mat.T @ y)
        assert np.array_equal(op.gram, mat.T @ mat)

    @pytest.mark.parametrize("shift, scale", [(np.nan, 1.0), (0.0, 0.0), (0.0, -1.0), (0.0, np.inf)])
    def test_rejects_bad_shift_or_scale(self, shift, scale):
        with pytest.raises(ValueError):
            Dense(np.ones((3, 2)), shift=shift, scale=scale)


def _intensity_by_draw(seed, s, m):
    return draw("convolution", 5000, s, 100.0, trial_rng(seed), m=m, n=0, q=0.5, noiseless=True)


def _intensity_by_recipe(seed, s, m):
    # the README quick start: the sensing operator applied to the signal
    rng = trial_rng(seed)
    x_star = make_sparse_signal(5000, s, 100.0, rng).dense()
    inst = sample_parents(5000, m, rng)
    return inst, apply(sensing_operator(inst), x_star), x_star


class TestForwardIntensity:
    @pytest.mark.parametrize("route", [_intensity_by_draw, _intensity_by_recipe])
    @pytest.mark.parametrize("s, m", [(50, 40), (100, 100)])
    def test_convolution_intensity_is_exact_at_scale(self, s, m, route):
        # FFT round-off alone makes this intensity negative in most draws; at
        # s = m = 100 both operands have more than SUPPORT_SUM_MAX nonzeros
        for seed in range(20):
            inst, intensity, x_star = route(seed, s, m)
            sample_poisson(intensity, trial_rng(seed))  # refuses a negative entry
            met = np.zeros(5000, dtype=bool)
            for k in np.flatnonzero(x_star):
                met |= np.roll(inst.counts > 0, k)
            assert np.all(intensity[met] > 0)
            assert np.all(intensity[~met] == 0)


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
        assert np.allclose(pair.score(x), want, atol=1e-12)
        for wrong in (x[:-1], np.append(x, 1.0)):
            with pytest.raises(ValueError):
                pair.score(wrong)

    def test_observations_are_a_read_only_copy(self):
        # the cached aty is A^T y_tilde, so y_tilde must not change under it
        y = np.arange(4.0)
        pair = SurrogatePair(Dense(np.eye(4)), y)
        with pytest.raises(ValueError):
            pair.y_tilde[0] = 1.0
        y[0] = 7.0  # the caller's array stays writable and is not shared
        assert pair.y_tilde[0] == 0.0
