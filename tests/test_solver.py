"""Coordinate descent correctness: optimality, invariances, refitting."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlasso.model
import wlasso.solver
from wlasso.errors import DegenerateColumnError, ParameterError, SingularDesignError
from wlasso.model import (
    Circulant,
    Dense,
    SurrogatePair,
    apply,
    apply_adjoint,
    trial_rng,
)
from wlasso.sensing import draw, surrogate, weights
from wlasso.solver import (
    SolverConfig,
    WeightVector,
    detected_support,
    kkt_check,
    oracle_least_squares,
    soft_threshold,
    two_step,
    weighted_lasso,
)

from reference import (
    count_products,
    dense_matrix,
    full_row_lasso,
    masked_kkt_from_score,
    residual_objective_and_gap,
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
    return WeightVector(vals)


def full_sweep_lasso(pair, w, gamma, tol_kkt=1e-8):
    """Reference coordinate descent: every sweep visits all p coordinates."""
    op, y = pair.a_tilde, pair.y_tilde
    gram = op.gram
    diag = gram.diagonal()
    limits = gamma * w.values / 2.0
    tol_coord = 1e-9 * (1.0 + np.abs(y).max())
    x = np.zeros(op.n_cols)
    h = apply_adjoint(op, y)
    for _ in range(10_000):
        delta_max = 0.0
        for k in range(x.size):
            delta = soft_threshold(h[k] + diag[k] * x[k], limits[k]) / diag[k] - x[k]
            if delta != 0.0:
                x[k] += delta
                h -= delta * gram[k]
                delta_max = max(delta_max, abs(delta))
        if delta_max < tol_coord:
            h = apply_adjoint(op, y - apply(op, x))
            if kkt_check(pair, w, gamma, x) < tol_kkt:
                return x
    raise AssertionError("full sweeps did not converge")


def model_instance(model, p, seed, s=None, m=None):
    """A drawn surrogate pair with its constant and nonconstant weights."""
    rng = trial_rng(seed)
    s = s or (3 if p == 50 else 15)
    inst, y, _ = draw(model, p, s, 100.0, rng, m=m or (12 if p == 50 else 60), n=2000, q=0.5)
    pair = surrogate(inst, y)
    return pair, {kind: weights(kind, inst, y) for kind in ("constant", "nonconstant")}


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
        assert residual_objective_and_gap(pair, w, 4.0, np.array([1.0, 0.0]))[0] == 9.0

    def test_zero_vector_is_data_term(self):
        pair = random_dense_pair(0)
        w = WeightVector.constant(12, 1.0)
        x0 = np.zeros(12)
        assert residual_objective_and_gap(pair, w, 4.0, x0)[0] == pytest.approx(
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


class TestWorkingSet:
    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    @pytest.mark.parametrize("p", [50, 300])
    def test_agrees_with_full_sweeps(self, model, p):
        nonempty = 0
        for seed in range(40):
            pair, built = model_instance(model, p, seed)
            for w in built.values():
                for gamma in (2.1, 4.0):
                    cfg = SolverConfig(gamma=gamma)
                    want = full_sweep_lasso(pair, w, gamma)
                    res = weighted_lasso(pair, w, cfg)
                    assert res.converged
                    assert np.array_equal(detected_support(res.x_hat), detected_support(want))
                    assert np.max(np.abs(res.x_hat - want)) <= 1e-8
                    assert kkt_check(pair, w, gamma, res.x_hat) <= cfg.tol_kkt
                    assert kkt_check(pair, w, gamma, want) <= cfg.tol_kkt
                    nonempty += bool(detected_support(want).size)
        assert nonempty >= 100  # most of the 160 solves have a nonzero solution

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    def test_warm_start_off_the_support_reaches_cold_support(self, model):
        pair, built = model_instance(model, 300, 3)
        w = built["nonconstant"]
        cfg = SolverConfig(gamma=2.1)
        cold = weighted_lasso(pair, w, cfg)
        support = detected_support(cold.x_hat)
        x0 = trial_rng(4).normal(size=300)
        x0[support] = 0.0
        warm = weighted_lasso(pair, w, cfg, x0=x0)
        assert warm.converged
        assert np.array_equal(detected_support(warm.x_hat), support)
        assert np.max(np.abs(warm.x_hat - cold.x_hat)) < 1e-6

    def test_sweep_budget_caps_the_sweeps(self):
        pair, built = model_instance("convolution", 300, 0)
        w = built["nonconstant"]
        assert weighted_lasso(pair, w, SolverConfig(gamma=2.1)).iterations > 1
        res = weighted_lasso(pair, w, SolverConfig(gamma=2.1, max_iter=1))
        assert not res.converged
        assert res.iterations == 1

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    def test_reported_working_set_and_gap(self, model):
        for seed in range(5):
            pair, built = model_instance(model, 300, seed)
            for w in built.values():
                res = weighted_lasso(pair, w, SolverConfig(gamma=2.1))
                assert res.converged
                assert detected_support(res.x_hat).size <= res.working_set <= 300
                assert -1e-12 * (1.0 + res.objective) <= res.gap <= 1e-6 * (1.0 + res.objective)

    def test_gap_positive_before_convergence(self):
        pair, built = model_instance("convolution", 300, 0)
        w = built["nonconstant"]
        assert np.any(weighted_lasso(pair, w, SolverConfig(gamma=2.1)).x_hat)
        res = weighted_lasso(pair, w, SolverConfig(gamma=2.1, max_iter=1), x0=np.zeros(300))
        assert not res.converged
        assert res.gap > 0.0

    def test_gap_by_hand(self):
        # identity design, y = (3, 0.5), thresholds 2: only coordinate 0 breaks
        # its threshold; x = (1, 0), r = (2, 0.5) is dual feasible unscaled, so
        # primal 4.25 + 4 equals dual 2 * 6.25 - 4.25
        pair = SurrogatePair(Circulant(np.array([1.0, 0.0])), np.array([3.0, 0.5]))
        res = weighted_lasso(pair, WeightVector.constant(2, 1.0), SolverConfig(gamma=4.0))
        assert np.array_equal(res.x_hat, [1.0, 0.0])
        assert res.working_set == 1
        assert res.objective == 8.25
        assert res.gap == 0.0


class TestFullRowIdentity:
    """The gathered working-set sweep gives the full-row loop's bits."""

    @pytest.fixture
    def set_sizes(self, monkeypatch):
        """The sizes of the working sets built since the list was last cleared."""
        sizes, build = [], wlasso.solver._working_set

        def recorded(*args):
            work = build(*args)
            sizes.append(work.size)
            return work

        monkeypatch.setattr(wlasso.solver, "_working_set", recorded)
        return sizes

    @staticmethod
    def assert_same_bits(pair, w, cfg, x0=None):
        got = weighted_lasso(pair, w, cfg, x0=x0)
        TestFullRowIdentity.assert_same_result(got, full_row_lasso(pair, w, cfg, x0=x0))
        return got

    @staticmethod
    def assert_same_result(got, want):
        assert got.x_hat.tobytes() == want.x_hat.tobytes()
        for field in ("iterations", "working_set", "converged", "kkt_residual", "gap", "objective"):
            assert type(getattr(got, field)) is type(getattr(want, field))
            assert repr(getattr(got, field)) == repr(getattr(want, field))

    @staticmethod
    def warm_start(p):
        """Ten random nonzeros, mostly off the solution's support."""
        rng = trial_rng(100)
        x0 = np.zeros(p)
        x0[rng.choice(p, 10, replace=False)] = rng.normal(size=10) * 5.0
        return x0

    def test_matches_full_rows(self, set_sizes):
        rebuilds = budget_stops = 0
        designs = [("convolution", 300, 15, 60), ("convolution", 1000, 5, 40),
                   ("convolution", 5000, 5, 40), ("bernoulli", 200, 5, None)]
        for model, p, s, m in designs:
            pair, built = model_instance(model, p, 0, s=s, m=m)
            x0 = self.warm_start(p)
            for w in built.values():
                for gamma in (2.1, 4.0, 8.0):
                    for max_iter, start in [(1, None), (2, None), (3, None), (10_000, None),
                                            (2, x0), (10_000, x0)]:
                        set_sizes.clear()
                        cfg = SolverConfig(gamma=gamma, max_iter=max_iter)
                        res = self.assert_same_bits(pair, w, cfg, x0=start)
                        rebuilds += len(set_sizes) > 1
                        budget_stops += not res.converged
        assert rebuilds >= 1
        assert budget_stops >= 1

    def test_result_start_matches_its_x_hat(self):
        # a start from a result reads its score instead of recomputing it, and
        # gives the bits of a start from its x_hat, on either loop
        designs = [("convolution", 300, 15, 60), ("convolution", 1000, 5, 40),
                   ("bernoulli", 200, 5, None)]
        for model, p, s, m in designs:
            pair, built = model_instance(model, p, 0, s=s, m=m)
            for w in built.values():
                for before, gamma in [(8.0, 4.0), (4.0, 2.1), (2.1, 8.0)]:
                    for max_iter in (1, 10_000):
                        prior = weighted_lasso(pair, w, SolverConfig(gamma=before, max_iter=max_iter))
                        cfg = SolverConfig(gamma=gamma)
                        got = weighted_lasso(pair, w, cfg, x0=prior)
                        self.assert_same_result(got, weighted_lasso(pair, w, cfg, x0=prior.x_hat))
                        self.assert_same_result(got, full_row_lasso(pair, w, cfg, x0=prior.x_hat))
                        assert got.score.tobytes() == pair.score(got.x_hat).tobytes()

    @pytest.mark.filterwarnings("ignore:gamma = 0.2")
    def test_matches_full_rows_on_a_large_set(self, set_sizes):
        # gamma = 0.2 at p = 2000, s = 5, m = 40: the first set holds most of p
        pair, built = model_instance("convolution", 2000, 0, s=5, m=40)
        x0 = self.warm_start(2000)
        first_sets, rebuilds = [], 0
        for w in built.values():
            for max_iter, start in [(1, None), (3, None), (10_000, None), (10_000, x0)]:
                set_sizes.clear()
                self.assert_same_bits(pair, w, SolverConfig(gamma=0.2, max_iter=max_iter), start)
                first_sets.append(set_sizes[0])
                rebuilds += len(set_sizes) > 1
        assert max(first_sets) >= 1000
        assert rebuilds >= 1


class TestResultScore:
    """A result carries the drift-free score that certified it."""

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    def test_score_is_the_score_at_x_hat(self, model):
        pair, built = model_instance(model, 300, 1)
        for w in built.values():
            cold = weighted_lasso(pair, w, SolverConfig(gamma=4.0))
            capped = weighted_lasso(pair, w, SolverConfig(gamma=2.1, max_iter=1))
            from_array = weighted_lasso(pair, w, SolverConfig(gamma=2.1), x0=cold.x_hat)
            from_result = weighted_lasso(pair, w, SolverConfig(gamma=2.1), x0=cold)
            assert cold.converged and not capped.converged
            for res in (cold, capped, from_array, from_result):
                assert res.score.tobytes() == pair.score(res.x_hat).tobytes()
                assert not res.score.flags.writeable
                gamma = 4.0 if res is cold else 2.1
                assert repr(res.kkt_residual) == repr(masked_kkt_from_score(
                    res.score, res.x_hat, gamma * w.values / 2.0))

    def test_result_start_leaves_the_result_alone(self):
        pair, built = model_instance("convolution", 300, 2)
        w = built["nonconstant"]
        prior = weighted_lasso(pair, w, SolverConfig(gamma=8.0))
        x_hat, score = prior.x_hat.copy(), prior.score.copy()
        res = weighted_lasso(pair, w, SolverConfig(gamma=2.1), x0=prior)
        assert res.x_hat is not prior.x_hat and res.score is not prior.score
        assert np.array_equal(prior.x_hat, x_hat) and np.array_equal(prior.score, score)

    def test_result_of_another_size_rejected(self):
        small, _ = model_instance("convolution", 50, 0)
        pair, built = model_instance("convolution", 300, 0)
        w = built["constant"]
        other = weighted_lasso(small, WeightVector.constant(50, 1.0), SolverConfig(gamma=4.0))
        with pytest.raises(ValueError, match="x0"):
            weighted_lasso(pair, w, SolverConfig(gamma=4.0), x0=other)

    def test_result_of_another_pair_only_costs_sweeps(self):
        # the handed-on score is wrong for this pair, but every certificate is fresh
        pair, built = model_instance("convolution", 300, 0)
        other, _ = model_instance("convolution", 300, 5)
        w = built["nonconstant"]
        cfg = SolverConfig(gamma=2.1)
        want = weighted_lasso(pair, w, cfg)
        got = weighted_lasso(pair, w, cfg, x0=weighted_lasso(other, w, cfg))
        assert got.converged
        assert kkt_check(pair, w, cfg.gamma, got.x_hat) <= cfg.tol_kkt
        assert np.array_equal(detected_support(got.x_hat), detected_support(want.x_hat))

    def test_gram_diagonal_checked_once_per_pair(self, monkeypatch):
        pair, built = model_instance("bernoulli", 50, 0)
        diagonal = pair.diagonal
        assert pair.diagonal is diagonal and not diagonal.flags.writeable
        calls = []
        flatnonzero = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda a: calls.append(a.size) or flatnonzero(a))
        weighted_lasso(pair, built["constant"], SolverConfig(gamma=4.0))
        # the working set's rule and the cold start's score search p; nothing else does
        assert len(calls) == 2


class TestInvariances:
    def test_circulant_and_dense_paths_agree(self):
        pair_c = random_circulant_pair(12, p=32)
        dense = dense_matrix(pair_c.a_tilde)
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
        scaled = WeightVector(3.0 * base.values)
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
        prev = residual_objective_and_gap(pair, w, gamma, x)[0]
        for _ in range(30):
            res = weighted_lasso(pair, w, SolverConfig(gamma=gamma, max_iter=1), x0=x)
            x = res.x_hat
            cur = residual_objective_and_gap(pair, w, gamma, x)[0]
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
        with pytest.raises(DegenerateColumnError) as exc:
            weighted_lasso(pair, WeightVector.constant(6, 1.0), SolverConfig(gamma=3.0))
        assert exc.value.column == 3

    def test_zero_circulant_rejected(self):
        pair = SurrogatePair(Circulant(np.zeros(5)), np.ones(5))
        with pytest.raises(DegenerateColumnError) as exc:
            weighted_lasso(pair, WeightVector.constant(5, 1.0), SolverConfig(gamma=3.0))
        assert exc.value.column == 0

    def test_dense_gram_guard(self, monkeypatch):
        monkeypatch.setattr(wlasso.model, "BYTE_BUDGET", 8 * 5**2)
        pair = random_dense_pair(26, n=10, p=6)
        with pytest.raises(ParameterError, match="^p .*, got 6$"):
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

    def test_config_is_frozen(self):
        cfg = SolverConfig(gamma=4.0)
        with pytest.raises(FrozenInstanceError):
            cfg.gamma = 8.0
        with pytest.raises(FrozenInstanceError):
            cfg.max_iter = 1
        assert cfg.gamma == 4.0 and cfg.max_iter == 10_000

    def test_tolerances_validated(self):
        with pytest.raises(ValueError):
            SolverConfig(gamma=3.0, tol_kkt=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(gamma=3.0, max_iter=0)

    def test_positive_weights_enforced(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            WeightVector(np.array([1.0, np.inf]))

    def test_penalty_ratio_bound(self):
        w = WeightVector(np.array([1.0, 4.0]))
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

    @staticmethod
    def assert_matches_lstsq(pair, support, cols, rtol=1e-9):
        want = np.linalg.lstsq(cols, pair.y_tilde, rcond=None)[0]
        got = oracle_least_squares(pair, support)
        assert np.linalg.norm(got[support] - want) <= rtol * np.linalg.norm(want)
        assert np.count_nonzero(np.delete(got, support)) == 0

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    @pytest.mark.parametrize("p", [50, 300])
    def test_gram_refit_matches_lstsq(self, model, p):
        for seed in range(3):
            pair, _ = model_instance(model, p, seed)
            support = trial_rng(seed + 60).choice(p, 3 if p == 50 else 15, replace=False)
            self.assert_matches_lstsq(pair, support, dense_matrix(pair.a_tilde)[:, support])

    def test_gram_refit_matches_lstsq_circulant_p5000(self):
        rng = trial_rng(9)
        inst, y, x_star = draw("convolution", 5000, 50, 100.0, rng, m=1280, n=0, q=0.5)
        support = np.flatnonzero(x_star)
        pair = surrogate(inst, y)
        c = pair.a_tilde.generator  # column k of a circulant is roll(c, k)
        self.assert_matches_lstsq(pair, support, np.stack([np.roll(c, k) for k in support], axis=1))

    @staticmethod
    def two_column_pair(ratio):
        """A 20 x 2 design whose columns have sigma_min / sigma_max = ratio."""
        rng = trial_rng(39)
        u, _ = np.linalg.qr(rng.normal(size=(20, 2)))
        v, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        mat = u @ np.diag([1.0, ratio]) @ v.T
        return SurrogatePair(Dense(mat), rng.normal(size=20)), mat

    def test_guard_refuses_column_ratio_1e_8(self):
        pair, mat = self.two_column_pair(1e-8)
        sings = np.linalg.svd(mat, compute_uv=False)
        assert sings[-1] > 1e-10 * sings[0]  # a 1e-10 singular-value rule would accept it
        with pytest.raises(SingularDesignError) as exc:
            oracle_least_squares(pair, np.array([0, 1]))
        assert exc.value.sigma_max == pytest.approx(1.0)
        assert exc.value.sigma_min <= 1e-6

    def test_guard_accepts_column_ratio_1e_4(self):
        pair, mat = self.two_column_pair(1e-4)
        self.assert_matches_lstsq(pair, np.array([0, 1]), mat, rtol=1e-6)

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    def test_refit_applies_no_design_product(self, model, monkeypatch):
        pair, _ = model_instance(model, 300, 2)
        pair.a_tilde.gram, pair.aty  # cached, as after a solve
        calls = count_products(monkeypatch)
        oracle_least_squares(pair, np.array([4, 90, 211]))
        assert calls == {"apply": 0, "adjoint": 0}

    def test_wide_dense_refit_needs_gram(self, monkeypatch):
        monkeypatch.setattr(wlasso.model, "BYTE_BUDGET", 8 * 10**2)
        pair = random_dense_pair(40, n=30, p=12)
        with pytest.raises(ParameterError, match="^p .*, got 12$"):
            oracle_least_squares(pair, np.array([0, 5]))

    def test_support_validation(self):
        # the empty support refits to zero; a repeated or out-of-range index is refused
        for pair in (random_dense_pair(33), random_circulant_pair(33)):
            p = pair.a_tilde.n_cols
            refit = oracle_least_squares(pair, np.array([], dtype=int))
            assert refit.shape == (p,) and not refit.any()
        pair = random_dense_pair(33)
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


class TestGramSpaceScore:
    """The solver's scores come from the cached aty and Gram rows alone."""

    @staticmethod
    def assert_matches_residual_route(pair, x):
        op = pair.a_tilde
        want = apply_adjoint(op, pair.y_tilde - apply(op, x))
        got = pair.score(x)
        assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + np.abs(pair.aty).max())

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    @pytest.mark.parametrize("p", [50, 300])
    def test_equals_residual_route(self, model, p):
        for seed in range(3):
            pair, built = model_instance(model, p, seed)
            rng = trial_rng(seed + 50)
            x = np.zeros(p)
            x[rng.choice(p, 5, replace=False)] = rng.normal(size=5) * 10.0
            self.assert_matches_residual_route(pair, x)
            for w in built.values():
                x_hat = weighted_lasso(pair, w, SolverConfig(gamma=2.1)).x_hat
                self.assert_matches_residual_route(pair, x_hat)

    def test_equals_residual_route_circulant_p5000(self):
        rng = trial_rng(8)
        inst, y, x_star = draw("convolution", 5000, 5, 100.0, rng, m=40, n=0, q=0.5)
        pair = surrogate(inst, y)
        self.assert_matches_residual_route(pair, x_star)
        w = weights("nonconstant", inst, y)
        self.assert_matches_residual_route(pair, weighted_lasso(pair, w, SolverConfig(gamma=4.0)).x_hat)

    def test_score_at_zero_is_aty_bit_for_bit(self):
        pair, _ = model_instance("convolution", 50, 0)
        h = pair.score(np.zeros(50))
        assert np.array_equal(h, apply_adjoint(pair.a_tilde, pair.y_tilde))
        assert h is not pair.aty

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    def test_reported_kkt_is_certified(self, model):
        for seed in range(3):
            pair, built = model_instance(model, 300, seed)
            for w in built.values():
                cfg = SolverConfig(gamma=2.1)
                res = weighted_lasso(pair, w, cfg)
                assert res.converged
                assert res.kkt_residual <= cfg.tol_kkt
                assert kkt_check(pair, w, cfg.gamma, res.x_hat) <= cfg.tol_kkt

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    def test_aty_computed_once_and_read_only(self, model, monkeypatch):
        pair, built = model_instance(model, 50, 1)
        calls = count_products(monkeypatch)
        aty = pair.aty
        assert pair.aty is aty
        assert calls["adjoint"] == 1
        assert np.array_equal(aty, pair.a_tilde.adjoint(pair.y_tilde))
        with pytest.raises(ValueError):
            aty[0] = 1.0
        weighted_lasso(pair, built["constant"], SolverConfig(gamma=2.1))
        assert pair.aty is aty

    def test_objective_gap_and_kkt_match_residual_route(self):
        designs = [("convolution", 300, 15, 60), ("convolution", 5000, 5, 40),
                   ("bernoulli", 200, 5, None)]
        for model, p, s, m in designs:
            pair, built = model_instance(model, p, 0, s=s, m=m)
            for w in built.values():
                for gamma in (2.1, 4.0, 8.0):
                    for max_iter in (1, 10_000):
                        res = weighted_lasso(pair, w, SolverConfig(gamma=gamma, max_iter=max_iter))
                        primal, gap = residual_objective_and_gap(pair, w, gamma, res.x_hat)
                        assert abs(res.objective - primal) <= 1e-12 * primal
                        assert abs(res.gap - gap) <= 1e-10 * (1.0 + primal)
                        score = pair.score(res.x_hat)
                        kkt = masked_kkt_from_score(score, res.x_hat, gamma * w.values / 2.0)
                        assert repr(res.kkt_residual) == repr(kkt)

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    def test_no_product_per_solve(self, model, monkeypatch):
        # once aty is cached, the score, objective and gap come from the Gram
        pair, built = model_instance(model, 300, 2)
        pair.aty
        calls = count_products(monkeypatch)
        res = weighted_lasso(pair, built["nonconstant"], SolverConfig(gamma=2.1))
        assert res.converged and np.any(res.x_hat)
        assert calls == {"apply": 0, "adjoint": 0}
