"""Coordinate descent correctness: optimality, invariances, refitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlasso.errors import DegenerateColumnError, SingularDesignError
from wlasso.model import (
    Circulant,
    Dense,
    SurrogatePair,
    apply,
    trial_rng,
)
from wlasso.solver import (
    SolverConfig,
    WeightVector,
    kkt_check,
    objective,
    oracle_least_squares,
    soft_threshold,
    two_step,
    weighted_lasso,
)


def random_dense_pair(seed, n=30, p=12):
    rng = trial_rng(seed)
    mat = rng.normal(size=(n, p)) / np.sqrt(n)
    y = rng.normal(size=n) * 2.0
    return SurrogatePair(Dense(mat), y)


def random_circulant_pair(seed, p=40):
    rng = trial_rng(seed)
    c = rng.normal(size=p) / np.sqrt(p)
    y = rng.normal(size=p) * 2.0
    return SurrogatePair(Circulant(c), y)


def random_weights(seed, p):
    vals = trial_rng(seed).uniform(0.2, 2.0, size=p)
    return WeightVector(vals, "nonconstant")


class TestSoftThreshold:
    def test_cases(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-3.0, 1.0) == -2.0
        assert soft_threshold(0.5, 1.0) == 0.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(1.0, 1.0) == 0.0

    @given(
        st.floats(-100, 100, allow_nan=False),
        st.floats(0, 50, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_shrinks_toward_zero_by_t(self, z, t):
        out = soft_threshold(z, t)
        assert abs(out) == pytest.approx(max(abs(z) - t, 0.0))
        if out != 0.0:
            assert np.sign(out) == np.sign(z)


class TestObjective:
    def test_identity_design_by_hand(self):
        # residual (2, -1), penalty 4 * 1 * |1|: objective 5 + 4 = 9
        pair = SurrogatePair(
            Circulant(np.array([1.0, 0.0])),
            np.array([3.0, -1.0]),
        )
        w = WeightVector.constant(2, 1.0)
        assert objective(pair, w, 4.0, np.array([1.0, 0.0])) == 9.0

    def test_zero_vector_is_data_term(self):
        pair = random_dense_pair(0)
        w = WeightVector.constant(12, 1.0)
        x0 = np.zeros(12)
        assert objective(pair, w, 4.0, x0) == pytest.approx(
            float(pair.y_tilde @ pair.y_tilde)
        )


class TestClosedForms:
    def test_identity_circulant_soft_threshold(self):
        p = 16
        rng = trial_rng(1)
        pair = SurrogatePair(
            Circulant(np.eye(p)[0]),
            rng.normal(size=p) * 3.0,
        )
        w = random_weights(2, p)
        gamma = 3.0
        res = weighted_lasso(pair, w, SolverConfig(gamma=gamma))
        want = np.array(
            [soft_threshold(z, gamma * d / 2.0) for z, d in zip(pair.y_tilde, w.values)]
        )
        assert res.converged
        assert np.max(np.abs(res.x_hat - want)) < 1e-12

    def test_orthonormal_dense_soft_threshold(self):
        p = 12
        rng = trial_rng(3)
        q_mat, _ = np.linalg.qr(rng.normal(size=(p, p)))
        pair = SurrogatePair(Dense(q_mat), rng.normal(size=p) * 2.0)
        w = random_weights(4, p)
        gamma = 2.5
        res = weighted_lasso(pair, w, SolverConfig(gamma=gamma))
        score = q_mat.T @ pair.y_tilde
        want = np.array(
            [soft_threshold(z, gamma * d / 2.0) for z, d in zip(score, w.values)]
        )
        assert np.max(np.abs(res.x_hat - want)) < 1e-10

    def test_all_below_threshold_gives_zero(self):
        pair = random_dense_pair(5)
        w = WeightVector.constant(12, 1e6)
        res = weighted_lasso(pair, w, SolverConfig(gamma=4.0))
        assert np.all(res.x_hat == 0.0)
        assert res.kkt_residual == 0.0
        assert res.converged


class TestKKT:
    @pytest.mark.parametrize("seed", range(5))
    def test_solution_is_stationary_dense(self, seed):
        pair = random_dense_pair(seed)
        w = random_weights(seed + 100, 12)
        res = weighted_lasso(pair, w, SolverConfig(gamma=2.2))
        assert res.converged
        assert kkt_check(pair, w, 2.2, res.x_hat) <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_solution_is_stationary_circulant(self, seed):
        pair = random_circulant_pair(seed)
        w = random_weights(seed + 200, 40)
        res = weighted_lasso(pair, w, SolverConfig(gamma=2.2))
        assert res.converged
        assert kkt_check(pair, w, 2.2, res.x_hat) <= 1e-8

    def test_perturbed_point_violates(self):
        pair = random_dense_pair(9)
        w = WeightVector.constant(12, 0.05)
        res = weighted_lasso(pair, w, SolverConfig(gamma=2.1))
        bad = res.x_hat.copy()
        bad[0] += 0.5
        assert kkt_check(pair, w, 2.1, bad) > 1e-3


class TestInvariances:
    def test_circulant_and_dense_paths_agree(self):
        pair_c = random_circulant_pair(12, p=32)
        dense = pair_c.a_tilde.materialize()
        pair_d = SurrogatePair(Dense(dense), pair_c.y_tilde)
        w = random_weights(13, 32)
        cfg = SolverConfig(gamma=2.3)
        a = weighted_lasso(pair_c, w, cfg)
        b = weighted_lasso(pair_d, w, cfg)
        assert np.max(np.abs(a.x_hat - b.x_hat)) < 1e-10

    def test_weight_scaling_equivariance(self):
        # (gamma, c*d) and (c*gamma, d) define the same objective
        pair = random_dense_pair(14)
        base = random_weights(15, 12)
        scaled = WeightVector(3.0 * base.values, "nonconstant")
        a = weighted_lasso(pair, scaled, SolverConfig(gamma=2.5))
        b = weighted_lasso(pair, base, SolverConfig(gamma=7.5))
        assert np.max(np.abs(a.x_hat - b.x_hat)) < 1e-10

    def test_column_rescaling_change_of_variables(self):
        # z = d * x turns weighted penalties into unit ones on A diag(1/d)
        pair = random_dense_pair(16)
        w = random_weights(17, 12)
        gamma = 3.0
        rescaled = SurrogatePair(
            Dense(pair.a_tilde.dense / w.values),
            pair.y_tilde,
        )
        unit = WeightVector.constant(12, 1.0)
        z = weighted_lasso(rescaled, unit, SolverConfig(gamma=gamma)).x_hat
        x = weighted_lasso(pair, w, SolverConfig(gamma=gamma)).x_hat
        assert np.max(np.abs(z / w.values - x)) < 1e-8

    def test_warm_start_at_solution_stays_put(self):
        pair = random_circulant_pair(18)
        w = random_weights(19, 40)
        cfg = SolverConfig(gamma=2.4)
        first = weighted_lasso(pair, w, cfg)
        again = weighted_lasso(pair, w, cfg, x0=first.x_hat)
        assert again.converged
        assert again.iterations <= 2
        # both runs stop once kkt < tol_kkt, so they agree to that order
        assert np.max(np.abs(again.x_hat - first.x_hat)) < 1e-6

    def test_single_sweep_descends(self):
        pair = random_dense_pair(20)
        w = random_weights(21, 12)
        gamma = 2.6
        x = np.zeros(12)
        prev = objective(pair, w, gamma, x)
        for _ in range(30):
            res = weighted_lasso(pair, w, SolverConfig(gamma=gamma, max_iter=1), x0=x)
            x = res.x_hat
            cur = objective(pair, w, gamma, x)
            assert cur <= prev + 1e-12
            prev = cur

    def test_x0_shape_checked(self):
        pair = random_dense_pair(22)
        w = random_weights(23, 12)
        with pytest.raises(ValueError):
            weighted_lasso(pair, w, SolverConfig(gamma=3.0), x0=np.zeros(5))

    def test_weight_length_checked(self):
        pair = random_dense_pair(24)
        with pytest.raises(ValueError):
            weighted_lasso(pair, WeightVector.constant(5, 1.0), SolverConfig(gamma=3.0))

    def test_zero_column_rejected(self):
        rng = trial_rng(25)
        mat = rng.normal(size=(10, 6))
        mat[:, 3] = 0.0
        pair = SurrogatePair(Dense(mat), rng.normal(size=10))
        with pytest.raises(DegenerateColumnError):
            weighted_lasso(pair, WeightVector.constant(6, 1.0), SolverConfig(gamma=3.0))


class TestConfigAndWeights:
    def test_small_gamma_warns(self):
        with pytest.warns(UserWarning):
            SolverConfig(gamma=1.5)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(gamma=0.0)
        with pytest.raises(ValueError):
            SolverConfig(gamma=float("nan"))

    def test_tolerances_validated(self):
        with pytest.raises(ValueError):
            SolverConfig(gamma=3.0, tol_coord=0.0)
        with pytest.raises(ValueError):
            SolverConfig(gamma=3.0, tol_kkt=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(gamma=3.0, max_iter=0)

    def test_constant_kind_enforced(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([1.0, 2.0]), "constant")

    def test_positive_weights_enforced(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([1.0, 0.0]), "nonconstant")
        with pytest.raises(ValueError):
            WeightVector(np.array([1.0, np.inf]), "oracle")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WeightVector(np.ones(3), "adaptive")

    def test_penalty_ratio_bound(self):
        w = WeightVector(np.array([1.0, 4.0]), "nonconstant")
        assert w.penalty_ratio_bound(4.0) == pytest.approx((6.0 / 2.0) * 4.0)
        with pytest.raises(ValueError):
            w.penalty_ratio_bound(2.0)


class TestRefitting:
    def test_oracle_ls_recovers_noiseless(self):
        rng = trial_rng(30)
        mat = rng.normal(size=(40, 15))
        x_true = np.zeros(15)
        x_true[[2, 7, 11]] = [3.0, -1.5, 2.0]
        pair = SurrogatePair(Dense(mat), mat @ x_true)
        x_hat = oracle_least_squares(pair, np.array([2, 7, 11]))
        assert np.max(np.abs(x_hat - x_true)) < 1e-10

    def test_oracle_ls_circulant(self):
        rng = trial_rng(31)
        c = rng.normal(size=24)
        op = Circulant(c)
        x_true = np.zeros(24)
        x_true[[0, 5]] = [1.0, 2.0]
        pair = SurrogatePair(op, apply(op, x_true))
        x_hat = oracle_least_squares(pair, np.array([0, 5]))
        assert np.max(np.abs(x_hat - x_true)) < 1e-10

    def test_residual_orthogonal_to_support_columns(self):
        rng = trial_rng(38)
        mat = rng.normal(size=(30, 50))
        pair = SurrogatePair(
            Dense(mat), rng.normal(size=30)
        )
        support = np.array([3, 11, 26, 44])
        x_hat = oracle_least_squares(pair, support)
        r = pair.y_tilde - mat @ x_hat
        assert np.max(np.abs(mat[:, support].T @ r)) <= 1e-10

    def test_singular_support_raises(self):
        rng = trial_rng(32)
        mat = rng.normal(size=(10, 4))
        mat[:, 1] = mat[:, 0]
        pair = SurrogatePair(Dense(mat), rng.normal(size=10))
        with pytest.raises(SingularDesignError):
            oracle_least_squares(pair, np.array([0, 1]))

    def test_support_validation(self):
        pair = random_dense_pair(33)
        with pytest.raises(ValueError):
            oracle_least_squares(pair, np.array([], dtype=int))
        with pytest.raises(ValueError):
            oracle_least_squares(pair, np.array([0, 0]))
        with pytest.raises(ValueError):
            oracle_least_squares(pair, np.array([0, 12]))

    def test_two_step_refits_detected_support(self):
        rng = trial_rng(34)
        mat = rng.normal(size=(50, 20)) / np.sqrt(50)
        x_true = np.zeros(20)
        x_true[[1, 8]] = [4.0, 3.0]
        pair = SurrogatePair(Dense(mat), mat @ x_true)
        first = weighted_lasso(
            pair, WeightVector.constant(20, 0.05), SolverConfig(gamma=2.5)
        )
        support, refit = two_step(first.x_hat, pair)
        assert np.array_equal(support, [1, 8])
        assert np.max(np.abs(refit - x_true)) < 1e-8

    def test_two_step_empty_support(self):
        pair = random_dense_pair(35)
        support, refit = two_step(np.zeros(12), pair)
        assert support.size == 0
        assert np.all(refit == 0.0)

    def test_two_step_eps_filters_dust(self):
        pair = random_dense_pair(36)
        first = np.zeros(12)
        first[3] = 1e-12
        support, refit = two_step(first, pair, support_eps=1e-9)
        assert support.size == 0 and np.all(refit == 0.0)
