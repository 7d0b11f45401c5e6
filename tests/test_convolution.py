"""Random convolution model: surrogate centering, count statistics, weights."""

import math

import numpy as np
import pytest

from wlasso.concentration import (
    bernstein_bound,
    empirical_deviation_bound,
    variance_envelope,
)
from wlasso.convolution import (
    ConvolutionInstance,
    constant_weights,
    count_spread_bound,
    default_theta,
    local_variance_estimates,
    nonconstant_weights,
    sample_parents,
    sensing_operator,
    surrogate_convolution,
)
from wlasso.errors import ParameterError
from wlasso.model import (
    apply,
    cyclic_correlate,
    make_sparse_signal,
    sample_poisson,
    trial_rng,
)
from wlasso.sensing import oracle_weights
from wlasso.solver import SolverConfig, weighted_lasso

from reference import dense_matrix


def draw_instance(seed, p=60, m=25, s=3, l1=30.0):
    rng = trial_rng(seed)
    sig = make_sparse_signal(p, s, l1, rng)
    inst = sample_parents(p, m, rng)
    y = sample_poisson(apply(sensing_operator(inst), sig.dense()), rng).counts.astype(
        np.float64
    )
    return inst, sig, y


class TestSampling:
    def test_counts_sum_to_m(self):
        inst = sample_parents(40, 17, trial_rng(0))
        assert inst.counts.sum() == 17
        # the counts bin the 17 positions drawn from the same stream
        parents = trial_rng(0).integers(0, 40, size=17)
        assert np.array_equal(np.bincount(parents, minlength=40), inst.counts)

    def test_deterministic(self):
        a = sample_parents(40, 17, trial_rng(5))
        b = sample_parents(40, 17, trial_rng(5))
        assert np.array_equal(a.counts, b.counts)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_parents(1, 5, trial_rng(0))
        with pytest.raises(ValueError):
            sample_parents(10, 0, trial_rng(0))
        with pytest.raises(ValueError):
            ConvolutionInstance(np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            ConvolutionInstance(np.array([2, -1, 0, 0, 0]))

    def test_sizes_are_read_off_the_counts(self):
        inst = ConvolutionInstance(np.array([5, 1, 2, 0]))
        assert (inst.p, inst.m) == (4, 8)
        # counts are whole numbers: 1.5 parents are refused, not truncated to 1
        with pytest.raises(ParameterError) as info:
            ConvolutionInstance(counts=[1.5, 1.5, 0, 0])
        assert info.value.name == "counts"

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_counts_refused_quietly(self, bad):
        # refused as counts, with no RuntimeWarning on the way (warnings are errors)
        with pytest.raises(ParameterError, match="whole numbers") as info:
            ConvolutionInstance(np.array([bad, 1.0]))
        assert info.value.name == "counts"


class TestCountConcentration:
    def test_counts_stay_in_binomial_window(self):
        # m/p = 200 per coordinate, three-sigma window, pooled coordinates
        p, m = 50, 10_000
        within = 0
        for t in range(100):
            inst = sample_parents(p, m, trial_rng(19, t))
            within += int(
                np.sum(np.abs(inst.counts - m / p) <= 3.0 * math.sqrt(m / p))
            )
        assert within >= 0.99 * 100 * p


class TestSurrogate:
    def test_design_generator_formula(self):
        inst, _, y = draw_instance(1)
        pair = surrogate_convolution(inst, y)
        rm = math.sqrt(inst.m)
        want = inst.counts / rm - (rm - 1.0) / inst.p
        assert np.allclose(pair.a_tilde.generator, want, atol=1e-14)

    def test_dense_view_is_recentred_sensing(self):
        inst, _, y = draw_instance(2, p=24, m=10)
        pair = surrogate_convolution(inst, y)
        rm = math.sqrt(inst.m)
        sensing = dense_matrix(sensing_operator(inst))
        want = sensing / rm - (rm - 1.0) / inst.p
        assert np.allclose(dense_matrix(pair.a_tilde), want, atol=1e-12)

    def test_centering_identity_noiseless(self):
        # feeding exact intensities through the Y-map lands on A_tilde x*
        inst, sig, _ = draw_instance(3, p=80, m=30)
        x_star = sig.dense()
        intensity = apply(sensing_operator(inst), x_star)
        pair = surrogate_convolution(inst, intensity)
        gap = np.max(np.abs(pair.y_tilde - apply(pair.a_tilde, x_star)))
        assert gap < 1e-10

    def test_m_equal_one_is_identity_recentring(self):
        inst = ConvolutionInstance(np.array([0, 0, 1, 0, 0, 0]))
        y = np.arange(6, dtype=np.float64)
        pair = surrogate_convolution(inst, y)
        assert np.array_equal(pair.y_tilde, y)
        assert np.array_equal(pair.a_tilde.generator, inst.counts.astype(float))

    def test_rejects_wrong_length(self):
        inst, _, _ = draw_instance(4)
        with pytest.raises(ValueError):
            surrogate_convolution(inst, np.zeros(inst.p + 1))


class TestCountStatistics:
    def test_spread_bound_by_hand(self):
        inst = ConvolutionInstance(np.array([5, 1, 2, 0]))
        center = (8 - 1) / 4
        want = max(abs(c - center) for c in (5, 1, 2, 0)) / 8
        assert count_spread_bound(inst) == pytest.approx(want, rel=1e-15)

    def test_local_variances_match_double_loop(self):
        inst, _, y = draw_instance(5, p=17, m=9)
        center = (inst.m - 1.0) / inst.p
        want = np.zeros(inst.p)
        for k in range(inst.p):
            for l in range(inst.p):
                want[k] += (inst.counts[(l - k) % inst.p] - center) ** 2 * y[l]
        want /= inst.m**2
        got = local_variance_estimates(inst, y)
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(want))

    def test_local_variances_nonnegative(self):
        inst, _, y = draw_instance(6)
        assert np.all(local_variance_estimates(inst, y) >= 0.0)


class TestWeights:
    def test_constant_composition(self):
        inst, _, y = draw_instance(7)
        theta = default_theta(inst.p)
        e = (inst.counts - (inst.m - 1.0) / inst.p) ** 2 / inst.m**2
        w_max = float(cyclic_correlate(e, inst.counts.astype(np.float64)).max())
        mass_env = variance_envelope(1.0 / math.sqrt(inst.m), float(y.sum()) / inst.m, theta)
        want = bernstein_bound(w_max * mass_env, count_spread_bound(inst), theta)
        got = constant_weights(inst, y)
        assert np.all(got.values == got.values[0])
        assert got.values[0] == pytest.approx(want, rel=1e-12)

    def test_nonconstant_composition(self):
        inst, _, y = draw_instance(8)
        theta = 4.0
        want = empirical_deviation_bound(
            count_spread_bound(inst), local_variance_estimates(inst, y), theta
        )
        got = nonconstant_weights(inst, y, theta=theta)
        assert got.values.shape == want.shape
        assert np.max(np.abs(got.values - want)) == 0.0

    def test_oracle_weights_floor_and_magnitude(self):
        inst, sig, y = draw_instance(9)
        pair = surrogate_convolution(inst, y)
        x_star = sig.dense()
        deviation = pair.score(x_star)
        got = oracle_weights(deviation, floor=1e-6)
        dev = np.abs(deviation)
        assert got.values.shape == dev.shape
        assert np.all(got.values >= 1e-6)
        big = dev > 1e-6
        assert np.array_equal(got.values[big], dev[big])

    def test_weights_cover_score_at_truth_usually(self):
        covered = 0
        for seed in range(25):
            inst, sig, y = draw_instance(seed + 300, p=200, m=30, s=4, l1=40.0)
            pair = surrogate_convolution(inst, y)
            dev = np.abs(pair.score(sig.dense()))
            if np.all(nonconstant_weights(inst, y).values >= dev):
                covered += 1
        assert covered >= 23

    def test_theta_default(self):
        assert default_theta(500) == pytest.approx(2.0 * math.log(500), rel=1e-15)

    def test_squared_weight_envelope_guard(self):
        # the 0.3 multiplier was fitted once on this exact suite and frozen
        p, m, l1 = 500, 40, 50.0
        lp = math.log(p)
        envelope = (lp**2 / p + lp**3 / m) * (l1 + lp / m)
        for t in range(50):
            rng = trial_rng(202, t)
            sig = make_sparse_signal(p, 5, l1, rng)
            inst = sample_parents(p, m, rng)
            y = sample_poisson(
                apply(sensing_operator(inst), sig.dense()), rng
            ).counts.astype(np.float64)
            d = float(constant_weights(inst, y).values[0])
            assert d * d <= 0.3 * envelope

    def test_squared_weights_sandwich_guard(self):
        # m sits in the window log(p) sqrt(p) <= m <= p; the (4.0, 2.0)
        # multipliers were fitted once on this exact suite and frozen
        p, m, l1 = 500, 200, 50.0
        lp = math.log(p)
        sig = make_sparse_signal(p, 5, l1, trial_rng(303, 0))
        x = sig.dense()
        rest = l1 - x
        lower = 4.0 * (x * lp / m + (lp / p) * rest + lp**2 / m**2)
        upper = 2.0 * (x * lp / m + (lp**2 / p) * rest + lp**4 / m**2)
        sq = []
        for t in range(50):
            rng = trial_rng(303, t + 1)
            inst = sample_parents(p, m, rng)
            y = sample_poisson(apply(sensing_operator(inst), x), rng).counts.astype(
                np.float64
            )
            sq.append(nonconstant_weights(inst, y).values ** 2)
        med = np.median(np.asarray(sq), axis=0)
        assert np.all(lower <= med)
        assert np.all(med <= upper)

    def test_oracle_weights_beat_estimated_usually(self):
        wins = 0
        cfg = SolverConfig(gamma=4.0)
        for t in range(200):
            rng = trial_rng(404, t)
            sig = make_sparse_signal(200, 5, 100.0, rng)
            x = sig.dense()
            inst = sample_parents(200, 20, rng)
            y = sample_poisson(apply(sensing_operator(inst), x), rng).counts.astype(
                np.float64
            )
            pair = surrogate_convolution(inst, y)
            e_est = np.sum(
                (weighted_lasso(pair, nonconstant_weights(inst, y), cfg).x_hat - x) ** 2
            )
            w_orc = oracle_weights(pair.score(x))
            e_orc = np.sum((weighted_lasso(pair, w_orc, cfg).x_hat - x) ** 2)
            wins += int(e_orc <= e_est)
        assert wins >= 140
