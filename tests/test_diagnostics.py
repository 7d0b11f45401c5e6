"""Assumption measurements: Gram deviation, RE floors, screening, bounds."""

import itertools
import math

import numpy as np
import pytest

from wlasso.convolution import (
    ConvolutionInstance,
    sample_parents,
    surrogate_convolution,
)
from wlasso.bernoulli import sample_bernoulli_matrix
from wlasso.diagnostics import (
    assumption_report,
    bernoulli_gram_expectation_check,
    convolution_gram_expectation_check,
    gram_deviation,
    re_constant_from_xi,
    rip_lower_bruteforce,
    support_condition_check,
    theoretical_l2_bound,
    ustat_check,
    weights_cover,
)
from wlasso.errors import EnumerationGuardError, MemoryGuardError
from wlasso.model import (
    Circulant,
    Dense,
    SurrogatePair,
    apply,
    trial_rng,
)
from wlasso.sensing import oracle_weights
from wlasso.solver import WeightVector


def identity_op(p):
    return Circulant(np.eye(p)[0])


def random_surrogate_design(seed, p=24, m=12):
    inst = sample_parents(p, m, trial_rng(seed))
    pair = surrogate_convolution(inst, np.zeros(p))
    return pair.a_tilde


class TestGramDeviation:
    def test_identity_is_zero(self):
        assert gram_deviation(identity_op(8)) == 0.0
        assert gram_deviation(Dense(np.eye(8))) == 0.0

    def test_circulant_equals_dense_path(self):
        op = random_surrogate_design(1)
        dense = Dense(op.materialize())
        assert gram_deviation(op) == pytest.approx(gram_deviation(dense), abs=1e-12)

    def test_dense_guard(self):
        op = Dense(np.ones((2, 10)))
        with pytest.raises(MemoryGuardError):
            gram_deviation(op, max_dense_p=5)

    def test_convolution_rate_envelope(self):
        # xi_hat <= 5 (log p / sqrt(p) + log^2 p / m) on at least 95% of trials
        p, m = 400, 60
        envelope = 5.0 * (math.log(p) / math.sqrt(p) + math.log(p) ** 2 / m)
        hits = 0
        for seed in range(200):
            inst = sample_parents(p, m, trial_rng(seed))
            pair = surrogate_convolution(inst, np.zeros(p))
            if gram_deviation(pair.a_tilde) <= envelope:
                hits += 1
        assert hits >= 190

    def test_bernoulli_rate_envelope(self):
        n, p, q = 2000, 50, 0.5
        envelope = math.sqrt(
            6.0 * math.log(p) / n * ((1 - q) ** 2 / q + q**2 / (1 - q))
        ) + math.log(p) / n * max((1 - q) / q, q / (1 - q))
        hits = 0
        for seed in range(200):
            inst = sample_bernoulli_matrix(n, p, q, trial_rng(seed))
            at = (inst.a - q) / math.sqrt(n * q * (1 - q))
            if gram_deviation(Dense(at)) <= envelope:
                hits += 1
        assert hits >= 190


class TestRipLower:
    def test_identity_is_one(self):
        for s in (1, 2, 4):
            assert rip_lower_bruteforce(identity_op(8), s) == pytest.approx(1.0, abs=1e-12)

    def test_s_one_is_min_diagonal(self):
        op = random_surrogate_design(2, p=10, m=6)
        gram = op.materialize().T @ op.materialize()
        assert rip_lower_bruteforce(op, 1) == pytest.approx(
            float(np.diag(gram).min()), abs=1e-12
        )

    def test_matches_rayleigh_random_search(self):
        op = random_surrogate_design(3, p=12, m=8)
        exact = rip_lower_bruteforce(op, 2)
        gram = op.materialize().T @ op.materialize()
        rng = trial_rng(4)
        best = np.inf
        for support in itertools.combinations(range(12), 2):
            idx = np.asarray(support)
            sub = gram[np.ix_(idx, idx)]
            v = rng.normal(size=(100_000, 2))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            best = min(best, float(np.min(np.einsum("ij,jk,ik->i", v, sub, v))))
        # random search can only sit above the exact eigen minimum
        assert exact <= best + 1e-12
        assert best - exact < 1e-6

    def test_monotone_nonincreasing_in_s(self):
        op = random_surrogate_design(5, p=14, m=9)
        vals = [rip_lower_bruteforce(op, s) for s in (1, 2, 3)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_gershgorin_floor(self):
        # 1 - s*xi is a valid lower bound whenever s*xi < 1
        for seed in range(10):
            op = random_surrogate_design(seed + 50, p=16, m=40)
            xi = gram_deviation(op)
            for s in (1, 2, 3):
                if s * xi < 1.0:
                    assert rip_lower_bruteforce(op, s) >= 1.0 - s * xi - 1e-10

    def test_enumeration_guard(self):
        op = random_surrogate_design(6, p=30, m=10)
        with pytest.raises(EnumerationGuardError):
            rip_lower_bruteforce(op, 10)

    def test_s_range_validated(self):
        op = identity_op(6)
        with pytest.raises(ValueError):
            rip_lower_bruteforce(op, 0)
        with pytest.raises(ValueError):
            rip_lower_bruteforce(op, 7)


class TestReConstant:
    def test_frozen_example(self):
        delta, valid = re_constant_from_xi(0.01, 10, 0.0)
        assert delta == pytest.approx(0.1, abs=1e-15)
        assert valid is True

    def test_invalid_when_sparsity_too_large(self):
        delta, valid = re_constant_from_xi(0.2, 10, 1.0)
        assert delta == pytest.approx(6.0)
        assert valid is False

    def test_zero_cone_reduces_to_xi_s(self):
        delta, _ = re_constant_from_xi(0.03, 7, 0.0)
        assert delta == pytest.approx(0.21)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            re_constant_from_xi(-0.1, 2, 0.0)
        with pytest.raises(ValueError):
            re_constant_from_xi(0.1, 0, 0.0)
        with pytest.raises(ValueError):
            re_constant_from_xi(0.1, 2, -1.0)


class TestWeightsCover:
    def test_oracle_weights_pass_definitionally(self):
        inst = sample_parents(30, 12, trial_rng(7))
        rng = trial_rng(8)
        y = rng.poisson(3.0, size=30).astype(float)
        pair = surrogate_convolution(inst, y)
        x_star = np.zeros(30)
        x_star[[2, 9]] = [5.0, 7.0]
        w = oracle_weights(pair, x_star)
        rep = weights_cover(pair, x_star, w)
        assert rep.passed
        assert rep.margin >= 0.0

    def test_noiseless_always_passes(self):
        inst = sample_parents(30, 12, trial_rng(9))
        x_star = np.zeros(30)
        x_star[[1, 4]] = [2.0, 3.0]
        op = Circulant(inst.counts.astype(float))
        pair = surrogate_convolution(inst, apply(op, x_star))
        rep = weights_cover(pair, x_star, WeightVector.constant(30, 0.5))
        assert rep.passed
        assert rep.margin == pytest.approx(0.5, abs=1e-8)

    def test_reports_worst_coordinate(self):
        pair = SurrogatePair(identity_op(4), np.array([0.0, 0.0, 3.0, 0.0]))
        w = WeightVector.constant(4, 1.0)
        rep = weights_cover(pair, np.zeros(4), w)
        assert not rep.passed
        assert rep.worst_index == 2
        assert rep.margin == pytest.approx(-2.0)


class TestSupportCondition:
    def test_frozen_example(self):
        w = WeightVector.constant(10, 1.0)
        ok, lhs, rhs = support_condition_check(0.01, 4.0, 0.1, w, [0, 1])
        assert ok is True
        assert lhs == pytest.approx(0.17777777777777778, rel=1e-12)
        assert rhs == pytest.approx(1.0)

    def test_orthonormal_design_trivially_passes(self):
        w = WeightVector.constant(10, 1.0)
        ok, lhs, _ = support_condition_check(0.0, 4.0, 0.0, w, [3])
        assert ok is True and lhs == 0.0

    def test_monotone_in_xi(self):
        w = WeightVector.constant(10, 1.0)
        ok, _, _ = support_condition_check(10.0, 4.0, 0.1, w, [0, 1])
        assert ok is False

    def test_validation(self):
        w = WeightVector.constant(4, 1.0)
        with pytest.raises(ValueError):
            support_condition_check(0.1, 2.0, 0.1, w, [0])
        with pytest.raises(ValueError):
            support_condition_check(0.1, 4.0, 1.0, w, [0])
        with pytest.raises(ValueError):
            support_condition_check(0.1, 4.0, 0.1, w, [])
        with pytest.raises(ValueError):
            support_condition_check(0.1, 4.0, 0.1, w, [0, 1, 2, 3])


class TestErrorBounds:
    def test_frozen_example(self):
        w = WeightVector.constant(10, 1.0)
        b = theoretical_l2_bound(4.0, 0.0, w, [0, 1, 2, 3])
        assert b.l2 == pytest.approx(16.0)
        assert b.l1 == pytest.approx(32.0)
        assert b.linf == pytest.approx(4.0)
        assert b.ls_oracle_sq == pytest.approx(4.0)
        assert b.prediction_sq == pytest.approx(512.0)

    def test_empty_support_is_zero(self):
        w = WeightVector.constant(10, 1.0)
        b = theoretical_l2_bound(4.0, 0.0, w, [])
        assert (b.l2, b.l1, b.linf, b.ls_oracle_sq, b.prediction_sq) == (0, 0, 0, 0, 0)

    def test_shrink_blows_up_near_one(self):
        w = WeightVector.constant(10, 1.0)
        tight = theoretical_l2_bound(4.0, 0.0, w, [0])
        loose = theoretical_l2_bound(4.0, 0.9, w, [0])
        assert loose.l2 > tight.l2

    def test_validation(self):
        w = WeightVector.constant(4, 1.0)
        with pytest.raises(ValueError):
            theoretical_l2_bound(0.0, 0.0, w, [0])
        with pytest.raises(ValueError):
            theoretical_l2_bound(4.0, 1.0, w, [0])


class TestUstat:
    def test_identity_gap_random(self):
        inst = sample_parents(64, 30, trial_rng(10))
        assert ustat_check(inst) <= 1e-10

    def test_pair_statistic_from_parents(self):
        inst = sample_parents(16, 7, trial_rng(11))
        p, m = inst.p, inst.m
        u_brute = np.zeros(p)
        for i in range(m):
            for j in range(m):
                if i != j:
                    u_brute[(inst.parents[j] - inst.parents[i]) % p] += 1
        u_brute -= m * (m - 1) / p
        counts = inst.counts.astype(float)
        corr = np.array(
            [sum(counts[u] * counts[(u + d) % p] for u in range(p)) for d in range(p)]
        )
        u_formula = corr - m * (m - 1) / p
        u_formula[0] -= m
        assert np.max(np.abs(u_brute - u_formula)) < 1e-12

    def test_all_distinct_parents_lag_zero(self):
        # every count is 0/1: U(0) = m - m - m(m-1)/p = -m(m-1)/p
        p, m = 12, 5
        counts = np.zeros(p, dtype=int)
        counts[[0, 3, 5, 8, 10]] = 1
        inst = ConvolutionInstance(p=p, m=m, counts=counts)
        assert ustat_check(inst) <= 1e-12
        u0 = float(counts @ counts) - m - m * (m - 1) / p
        assert u0 == pytest.approx(-m * (m - 1) / p)

    def test_single_parent(self):
        inst = ConvolutionInstance(p=8, m=1, counts=np.eye(8, dtype=int)[2])
        assert ustat_check(inst) <= 1e-12

    def test_guard(self):
        inst = sample_parents(64, 10, trial_rng(12))
        with pytest.raises(MemoryGuardError):
            ustat_check(inst, max_p=32)


class TestGramExpectation:
    def test_bernoulli_mean_is_identity(self):
        rep = bernoulli_gram_expectation_check(200, 10, 0.5, 2000, trial_rng(13))
        assert rep.n_draws == 2000
        assert rep.max_z <= 4.0

    def test_bernoulli_other_density(self):
        rep = bernoulli_gram_expectation_check(200, 10, 0.25, 2000, trial_rng(14))
        assert rep.max_z <= 4.0

    def test_convolution_mean_is_identity(self):
        rep = convolution_gram_expectation_check(16, 8, 2000, trial_rng(15))
        assert rep.max_z <= 4.0

    def test_deterministic(self):
        a = bernoulli_gram_expectation_check(50, 6, 0.5, 100, trial_rng(16))
        b = bernoulli_gram_expectation_check(50, 6, 0.5, 100, trial_rng(16))
        assert a.max_abs_deviation == b.max_abs_deviation
        assert np.array_equal(a.mean_deviation, b.mean_deviation)

    def test_needs_two_draws(self):
        with pytest.raises(ValueError):
            bernoulli_gram_expectation_check(50, 6, 0.5, 1, trial_rng(17))


class TestAssumptionReport:
    def build(self, seed=18, gamma=4.0):
        inst = sample_parents(40, 60, trial_rng(seed))
        rng = trial_rng(seed + 1)
        x_star = np.zeros(40)
        x_star[[3, 17]] = [4.0, 6.0]
        op = Circulant(inst.counts.astype(float))
        y = rng.poisson(apply(op, x_star)).astype(float)
        pair = surrogate_convolution(inst, y)
        w = oracle_weights(pair, x_star)
        return assumption_report(pair, x_star, w, gamma, theta_used=5.0, rip_s=2)

    def test_fields_populated(self):
        rep = self.build()
        assert rep.gram_dev >= 0.0
        assert rep.theta_used == 5.0
        assert rep.rip_lower is not None
        assert rep.re_bound is not None and rep.re_valid is not None
        assert rep.weights_pass is True

    def test_rip_omitted_without_request(self):
        inst = sample_parents(40, 60, trial_rng(19))
        pair = surrogate_convolution(inst, np.zeros(40))
        w = WeightVector.constant(40, 1.0)
        rep = assumption_report(pair, np.zeros(40), w, 4.0, theta_used=3.0)
        assert rep.rip_lower is None
        assert rep.re_bound is None  # empty support: no sparsity to certify
        assert rep.support_pass is None

    def test_kv_formatting(self):
        rep = self.build()
        kv = rep.to_kv()
        assert kv["weights_pass"] in ("true", "false")
        assert kv["theta_used"] == "5"
        text = rep.to_text()
        assert text.startswith("assumption report")
        assert "weights_pass = true" in text

    def test_kv_blank_for_missing(self):
        inst = sample_parents(40, 60, trial_rng(20))
        pair = surrogate_convolution(inst, np.zeros(40))
        w = WeightVector.constant(40, 1.0)
        rep = assumption_report(pair, np.zeros(40), w, 4.0, theta_used=3.0)
        assert rep.to_kv()["support_pass"] == ""
        assert "support_pass =\n" in rep.to_text() or "support_pass =" in rep.to_text()
