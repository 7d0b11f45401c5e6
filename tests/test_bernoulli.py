"""Bernoulli sensing model: surrogate identities, mass estimator, weights."""

import math

import numpy as np
import pytest

from wlasso.bernoulli import (
    _BLOCK_ROWS as BLOCK_ROWS,
    BernoulliInstance,
    check_design,
    constant_weights,
    default_theta,
    l1_norm_estimator,
    max_pair_weight,
    nonconstant_weights,
    sample_bernoulli_matrix,
    surrogate_bernoulli,
    variance_statistics,
)
from wlasso.concentration import (
    bernstein_bound,
    empirical_deviation_bound,
    variance_envelope,
)
import wlasso.model
from wlasso.errors import (
    ParameterError, RegimeViolationError,
)
from wlasso.model import make_sparse_signal, sample_poisson, trial_rng

from reference import dense_matrix, peak_bytes


def draw_instance(seed, n=400, p=30, q=0.4, s=3, l1=20.0):
    rng = trial_rng(seed)
    sig = make_sparse_signal(p, s, l1, rng)
    inst = sample_bernoulli_matrix(n, p, q, rng)
    y = sample_poisson(inst.a @ sig.dense(), rng).counts.astype(np.float64)
    return inst, sig, y


class TestSampling:
    def test_deterministic_and_binary(self):
        a = sample_bernoulli_matrix(50, 20, 0.3, trial_rng(1))
        b = sample_bernoulli_matrix(50, 20, 0.3, trial_rng(1))
        assert np.array_equal(a.a, b.a)
        assert set(np.unique(a.a)) <= {0.0, 1.0}
        assert np.array_equal(a.column_sums, a.a.sum(axis=0))

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_bernoulli_matrix(1, 10, 0.5, trial_rng(0))
        with pytest.raises(ValueError):
            sample_bernoulli_matrix(10, 10, 0.0, trial_rng(0))
        with pytest.raises(ValueError):
            sample_bernoulli_matrix(10, 10, 1.0, trial_rng(0))
        with pytest.raises(ValueError):
            BernoulliInstance(np.zeros(3), 0.5)
        with pytest.raises(ValueError, match="0, 1"):
            BernoulliInstance([[1.0, 0.0], [0.5, 1.0]], 0.5)
        with pytest.raises(ValueError, match="0, 1"):
            BernoulliInstance([[1.0, 0.0], [2.0, 1.0]], 0.5)

    def test_draw_is_the_rngs_comparison(self):
        # the sampler hands its boolean draw over as it is; the RNG calls stay
        for n, p, q in ((2, 2, 0.5), (50, 13, 0.3), (600, 7, 0.998)):
            got = sample_bernoulli_matrix(n, p, q, trial_rng(n)).a
            want = (trial_rng(n).random((n, p)) < q).astype(np.float64)
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    def test_boolean_design_builds_as_its_float_copy(self):
        mask = trial_rng(12).random((300, 20)) < 0.4
        y = np.arange(300.0) % 7
        from_bool = BernoulliInstance(mask, 0.4)
        from_float = BernoulliInstance(mask.astype(np.float64), 0.4)
        assert from_bool.a.dtype == np.float64 and not from_bool.a.flags.writeable
        for name in ("a", "column_sums", "co_occurrence"):
            assert np.array_equal(getattr(from_bool, name), getattr(from_float, name))
        assert max_pair_weight(from_bool) == max_pair_weight(from_float)
        for build in (constant_weights, nonconstant_weights):
            assert np.array_equal(build(from_bool, y).values, build(from_float, y).values)

    def test_one_column_is_rejected_as_p(self):
        # the default theta 3 log p is 0 at p = 1
        with pytest.raises(ParameterError, match="^p must be >= 2"):
            sample_bernoulli_matrix(500, 1, 0.5, trial_rng(0))
        with pytest.raises(ParameterError, match="^p must be >= 2"):
            BernoulliInstance([[1.0], [0.0]], 0.5)

    def test_sizes_and_column_sums_are_read_off_the_design(self):
        # the surrogate Gram reads the sums: [9, 9, 9] in place of this
        # design's [2, 2, 2] would make its first diagonal entry -8.33, not 1
        a = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        inst = BernoulliInstance(a, 0.5)
        assert (inst.n, inst.p) == (3, 3)
        assert np.array_equal(inst.column_sums, a.sum(axis=0))
        gram = surrogate_bernoulli(inst, np.zeros(3)).a_tilde.gram
        assert gram[0, 0] == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(TypeError):
            BernoulliInstance(a, 0.5, column_sums=np.full(3, 9.0))


class TestMomentOracles:
    def test_column_means_near_q(self):
        inst = sample_bernoulli_matrix(10_000, 4, 0.3, trial_rng(3))
        se = math.sqrt(0.3 * 0.7 / 10_000)
        assert np.all(np.abs(inst.a.mean(axis=0) - 0.3) <= 3.0 * se)

    def test_recentred_design_has_zero_mean(self):
        # average entry of A-tilde over repeated draws, one z-test
        vals = []
        for t in range(2000):
            inst = sample_bernoulli_matrix(50, 8, 0.3, trial_rng(9, t))
            pair = surrogate_bernoulli(inst, np.zeros(50))
            vals.append(dense_matrix(pair.a_tilde).mean())
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean()) <= 3.0 * se


class TestSurrogate:
    def test_design_entrywise_formula(self):
        inst, _, y = draw_instance(2)
        pair = surrogate_bernoulli(inst, y)
        scale = math.sqrt(inst.n * inst.q * (1 - inst.q))
        assert np.allclose(dense_matrix(pair.a_tilde), (inst.a - inst.q) / scale, atol=1e-14)

    def test_design_is_shared_and_read_only(self):
        inst, _, y = draw_instance(2)
        pair = surrogate_bernoulli(inst, y)
        assert np.shares_memory(pair.a_tilde.dense, inst.a)
        with pytest.raises(ValueError):
            inst.a[0, 0] = 1.0 - inst.a[0, 0]
        with pytest.raises(ValueError):
            pair.a_tilde.dense[0, 0] = 0.5

    def test_makes_no_design_copy(self):
        # the pair and its aty, then the score at the truth off the built Gram,
        # each stay far below one n x p float array
        inst, sig, y = draw_instance(6, n=2000, p=200, q=0.5)
        inst.co_occurrence  # drawn once per instance, before the pair
        pair = None

        def build():
            nonlocal pair
            pair = surrogate_bernoulli(inst, y)
            pair.aty

        assert peak_bytes(build) < inst.n * inst.p * 8 / 10
        pair.a_tilde.gram
        x_star = sig.dense()
        assert peak_bytes(lambda: pair.score(x_star)) < inst.n * inst.p * 8 / 10

    def test_observations_sum_to_zero(self):
        inst, _, y = draw_instance(3)
        pair = surrogate_bernoulli(inst, y)
        assert abs(pair.y_tilde.sum()) < 1e-10 * max(1.0, float(np.abs(y).sum()))

    def test_rejects_wrong_length(self):
        inst, _, _ = draw_instance(4)
        with pytest.raises(ValueError):
            surrogate_bernoulli(inst, np.zeros(inst.n + 1))

    def test_deviation_splits_into_noise_and_design_parts(self):
        # score at the truth = R^T (Y - A x*) + M x*, with
        # R = ((n/(n-1)) B - s 1^T/(n-1)) / (n q (1-q)),  B = A - q,  s = B^T 1
        # M = (B^T B - s s^T) / ((n-1) n q (1-q))
        inst, sig, y = draw_instance(5, n=200, p=15, q=0.35)
        x_star = sig.dense()
        pair = surrogate_bernoulli(inst, y)
        got = pair.score(x_star)

        n, q = inst.n, inst.q
        b_mat = inst.a - q
        s_vec = b_mat.sum(axis=0)
        eps = y - inst.a @ x_star
        noise_part = (
            (n / (n - 1)) * (b_mat.T @ eps) - s_vec * eps.sum() / (n - 1)
        ) / (n * q * (1 - q))
        design_part = (
            b_mat.T @ (b_mat @ x_star) - s_vec * (s_vec @ x_star)
        ) / ((n - 1) * n * q * (1 - q))
        assert np.max(np.abs(got - (noise_part + design_part))) < 1e-10


class TestMassEstimator:
    def test_zero_counts_arithmetic(self):
        # frozen: theta = 3 log 100, numerator (sqrt(th/2)+sqrt(5 th/6))^2,
        # denominator 5000 - sqrt(5000 th) - 0.5 th / 3
        inst = BernoulliInstance(np.zeros((10_000, 100)), 0.5)
        got = l1_norm_estimator(inst, np.zeros(10_000))
        assert got == pytest.approx(0.00765732069178632, rel=1e-12)

    def test_matches_toolkit_composition(self):
        inst, _, y = draw_instance(6)
        theta = default_theta(inst.p)
        n, q = inst.n, inst.q
        denom = n * q - math.sqrt(2 * n * q * (1 - q) * theta) - max(q, 1 - q) * theta / 3
        want = variance_envelope(1.0, float(y.sum()), theta) / denom
        assert l1_norm_estimator(inst, y) == pytest.approx(want, rel=1e-12)

    def test_covers_true_mass_usually(self):
        covered = 0
        for seed in range(40):
            inst, sig, y = draw_instance(seed, n=3000, p=50, q=0.3, s=2, l1=20.0)
            if l1_norm_estimator(inst, y) >= sig.values.sum():
                covered += 1
        assert covered >= 36

    def test_small_n_violates_regime(self):
        inst = BernoulliInstance(np.zeros((10, 50)), 0.5)
        with pytest.raises(RegimeViolationError):
            l1_norm_estimator(inst, np.zeros(10))


class TestPairWeight:
    def test_matches_triple_loop(self):
        inst, _, _ = draw_instance(7, n=8, p=5)
        n, q = inst.n, inst.q
        best = -np.inf
        for u in range(inst.p):
            for k in range(inst.p):
                acc = 0.0
                for l in range(n):
                    acc += inst.a[l, u] * (n * inst.a[l, k] - inst.column_sums[k]) ** 2
                best = max(best, acc / (n * (n - 1) * q * (1 - q)) ** 2)
        assert max_pair_weight(inst) == pytest.approx(best, rel=1e-12)

    def test_equals_direct_product_exactly(self):
        # the co-occurrence form rounds nothing, so it matches a^T (n a - S)^2
        rng = trial_rng(9)
        for q in (0.002, 0.03, 0.3, 0.5, 0.7, 0.97, 0.998):
            for n, p in ((2, 2), (2, 7), (50, 13), (400, 30)):
                inst = sample_bernoulli_matrix(n, p, q, rng)
                direct = inst.a.T @ (n * inst.a - inst.column_sums) ** 2
                direct /= (n * (n - 1) * q * (1 - q)) ** 2
                assert max_pair_weight(inst) == direct.max()

    def test_co_occurrence_guard_reads_byte_budget(self, monkeypatch):
        inst, _, y = draw_instance(8, n=100, p=20)
        monkeypatch.setattr(wlasso.model, "BYTE_BUDGET", 8 * 19**2)
        with pytest.raises(ParameterError) as exc:
            max_pair_weight(inst)
        assert (exc.value.name, exc.value.value) == ("p", 20)
        with pytest.raises(ParameterError):
            constant_weights(inst, y)
        monkeypatch.setattr(wlasso.model, "BYTE_BUDGET", 8 * 20**2)
        assert max_pair_weight(inst) > 0.0

    def test_constant_weights_build_at_n2000_p800(self):
        # n p^2 = 1.28e9: the same co-occurrence product the surrogate Gram needs
        inst, _, y = draw_instance(10, n=2000, p=800, q=0.5)
        w = constant_weights(inst, y)
        assert w.values.shape == (800,)
        assert np.all(np.isfinite(w.values)) and w.values[0] > 0.0


class TestWeights:
    def test_constant_composition(self):
        inst, _, y = draw_instance(9)
        theta = default_theta(inst.p)
        n_hat = l1_norm_estimator(inst, y, theta)
        b_r = 1.0 / ((inst.n - 1) * inst.q * (1 - inst.q))
        first = bernstein_bound(max_pair_weight(inst) * n_hat, b_r, theta)
        qmax2 = max(inst.q**2, (1 - inst.q) ** 2)
        second = (
            theta / inst.n + qmax2 * theta**2 / (inst.n**2 * inst.q * (1 - inst.q))
        ) * n_hat
        w = constant_weights(inst, y)
        assert np.all(w.values == w.values[0])
        assert w.values[0] == pytest.approx(first + second, rel=1e-12)

    def test_nonconstant_matches_double_loop(self):
        inst, _, y = draw_instance(10, n=60, p=8)
        theta = 5.0
        n, q = inst.n, inst.q
        b_r = 1.0 / ((n - 1) * q * (1 - q))
        n_hat = l1_norm_estimator(inst, y, theta)
        qmax2 = max(q * q, (1 - q) ** 2)
        second = 2.0 * (theta / n + qmax2 * theta**2 / (n * n * q * (1 - q))) * n_hat
        want = np.empty(inst.p)
        for k in range(inst.p):
            vty = 0.0
            for l in range(n):
                vty += y[l] * ((n * inst.a[l, k] - inst.column_sums[k]) / (n * (n - 1) * q * (1 - q))) ** 2
            want[k] = empirical_deviation_bound(b_r, vty, theta) + second
        got = nonconstant_weights(inst, y, c=2.0, theta=theta)
        assert got.values.shape == want.shape
        assert np.max(np.abs(got.values - want)) < 1e-12 * np.max(want)

    def test_second_order_scale_shifts_weights(self):
        inst, _, y = draw_instance(11)
        lo = nonconstant_weights(inst, y, c=0.0).values
        hi = nonconstant_weights(inst, y, c=5.0).values
        assert np.all(hi > lo)

    def test_weight_grows_with_signal_mass(self):
        # doubling the signal mass (same seeds, fresh Y) raises the weight
        meds = []
        for l1 in (30.0, 60.0):
            ds = []
            for t in range(30):
                rng = trial_rng(17, t)
                sig = make_sparse_signal(100, 3, l1, rng)
                inst = sample_bernoulli_matrix(2000, 100, 0.5, rng)
                y = sample_poisson(inst.a @ sig.dense(), rng).counts.astype(np.float64)
                ds.append(float(constant_weights(inst, y).values[0]))
            meds.append(float(np.median(ds)))
        assert meds[1] > meds[0]

    def test_squared_spread_within_flatness_guard(self):
        # per-trial spread of d_k^2 against max(1/q, 1/(1-q)); the 0.6
        # multiplier was fitted once on this exact suite and is frozen
        ratios = []
        for t in range(50):
            rng = trial_rng(101, t)
            sig = make_sparse_signal(100, 3, 30.0, rng)
            inst = sample_bernoulli_matrix(5000, 100, 0.25, rng)
            y = sample_poisson(inst.a @ sig.dense(), rng).counts.astype(np.float64)
            d = nonconstant_weights(inst, y).values
            ratios.append(float(d.max() ** 2 / d.min() ** 2))
        assert np.median(ratios) <= 0.6 * max(1 / 0.25, 1 / 0.75)

    def test_weights_cover_score_at_truth_usually(self):
        covered = 0
        for seed in range(25):
            inst, sig, y = draw_instance(seed + 500, n=2000, p=40, q=0.5, s=3, l1=15.0)
            pair = surrogate_bernoulli(inst, y)
            dev = np.abs(pair.score(sig.dense()))
            if np.all(nonconstant_weights(inst, y).values >= dev):
                covered += 1
        assert covered >= 23


def direct_statistics(inst, y):
    n, q = inst.n, inst.q
    return y @ ((n * inst.a - inst.column_sums) / (n * (n - 1) * q * (1 - q))) ** 2


class TestColumnStatistics:
    """The O(n p) statistics and the co-occurrence Gram match their definitions."""

    @pytest.mark.parametrize("q", [0.002, 0.5, 0.998])
    @pytest.mark.parametrize("n", [2, 60, 2000])
    def test_statistics_equal_direct_product_on_counts(self, q, n):
        for seed in range(5):
            inst, _, y = draw_instance(seed, n=n, p=30, q=q)
            want = direct_statistics(inst, y)
            got = variance_statistics(inst, y)
            assert np.all(np.abs(got - want) <= 1e-13 * want)

    @pytest.mark.parametrize("q", [0.002, 0.5, 0.998])
    @pytest.mark.parametrize("n", [2, 60, 2000])
    def test_statistics_on_noiseless_float_y(self, q, n):
        # sum(y) - y @ a rounds like sum(y), so the bound is relative to the
        # sum(y) S^2 term it is taken from; at q <= 1/2 that is the result's size
        for seed in range(5):
            inst, sig, _ = draw_instance(seed, n=n, p=30, q=q)
            y = inst.a @ sig.dense() + 0.1
            want = direct_statistics(inst, y)
            got = variance_statistics(inst, y)
            scale = want + y.sum() * inst.column_sums**2 / (n * (n - 1) * q * (1 - q)) ** 2
            assert np.all(got >= 0.0)
            assert np.all(np.abs(got - want) <= 1e-13 * scale)
            if q <= 0.5:
                assert np.all(np.abs(got - want) <= 1e-13 * want)

    def test_all_ones_column_gives_finite_weights(self):
        # a column of ones has V^T y = 0, and in most of these draws sum(y)
        # rounds below y @ a on one; the statistic must not go below zero
        for seed in range(6):
            inst, sig, _ = draw_instance(seed, n=400, p=30, q=0.998)
            assert np.any(inst.column_sums == inst.n)
            y = inst.a @ sig.dense() + 0.1
            assert np.all(variance_statistics(inst, y) >= 0.0)
            assert np.all(np.isfinite(nonconstant_weights(inst, y).values))

    @pytest.mark.parametrize("q", [0.25, 0.5])
    def test_surrogate_gram_from_co_occurrence(self, q):
        for seed in range(3):
            inst, _, y = draw_instance(seed, n=500, p=40, q=q)
            a_tilde = surrogate_bernoulli(inst, y).a_tilde
            want = dense_matrix(a_tilde).T @ dense_matrix(a_tilde)
            assert np.max(np.abs(a_tilde.gram - want)) <= 1e-12

    def test_one_co_occurrence_product_per_draw(self):
        inst, _, y = draw_instance(4)
        counts = inst.co_occurrence
        assert inst.co_occurrence is counts
        assert np.array_equal(counts, inst.a.T @ inst.a)
        with pytest.raises(ValueError):
            counts[0, 0] = 1.0
        max_pair_weight(inst)
        surrogate_bernoulli(inst, y).a_tilde.gram
        assert inst.co_occurrence is counts

    @pytest.mark.parametrize("q", [0.002, 0.5, 0.998])
    @pytest.mark.parametrize("p", [2, 7, 200])
    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2000])
    def test_single_precision_counts_equal_float64_product(self, n, p, q):
        inst = sample_bernoulli_matrix(n, p, q, trial_rng(n, p))
        assert np.array_equal(inst.co_occurrence, inst.a.T @ inst.a)
        # the largest count, n, in every entry: all-ones columns, which q = 0.998
        # draws at some sizes and not at others
        ones = BernoulliInstance(np.ones((n, p), dtype=bool), q)
        assert np.array_equal(ones.co_occurrence, ones.a.T @ ones.a)
        assert np.all(ones.co_occurrence == n)

    def test_size_rule_keeps_counts_exact_in_float32(self):
        # a float32 sum of whole numbers is exact while it stays below 2^24;
        # the largest count is n, and the widest n the size rule admits is at p = 2
        widest_n = wlasso.model.BYTE_BUDGET // 16
        check_design(widest_n, 2, 0.5)
        with pytest.raises(ParameterError):
            check_design(widest_n + 1, 2, 0.5)
        assert widest_n < 2**24

    def test_counts_make_no_design_copy(self):
        # one block of rows is cast to float32 at a time, never the n x p design
        inst, _, _ = draw_instance(6, n=2000, p=200, q=0.5)
        assert peak_bytes(lambda: inst.co_occurrence) < inst.n * inst.p * 8 / 4

    def test_wide_design_builds_without_its_gram(self, monkeypatch):
        inst, _, y = draw_instance(5, n=400, p=30)
        monkeypatch.setattr(wlasso.model, "BYTE_BUDGET", 8 * 20**2)
        pair = surrogate_bernoulli(inst, y)
        assert nonconstant_weights(inst, y).values.shape == (30,)
        assert pair.aty.shape == (30,)
        assert "co_occurrence" not in vars(inst)
        with pytest.raises(ParameterError) as exc:
            pair.a_tilde.gram
        assert (exc.value.name, exc.value.value) == ("p", 30)
