"""End-to-end acceptance gate.

Each test records a single PASS/FAIL line, shown in a summary section at
the end of the pytest run (see conftest), then asserts.  Numbered in the
order the criteria are tracked.
"""

import math
import time

import numpy as np

from wlasso import bernoulli as bn
from wlasso import convolution as cv
from wlasso.concentration import tail_coverage_test
from wlasso.diagnostics import (
    bernoulli_gram_expectation_check,
    convolution_gram_expectation_check,
    gram_deviation,
    re_constant_from_xi,
    support_condition_check,
    theoretical_l2_bound,
    ustat_check,
    weights_cover,
)
from wlasso.experiments import ExperimentConfig, run_mse_vs_m, rows_to_csv
from wlasso.model import (
    Dense,
    SurrogatePair,
    apply,
    deviation_at_truth,
    make_sparse_signal,
    sample_poisson,
    trial_rng,
)
from wlasso.solver import SolverConfig, WeightVector, kkt_check, weighted_lasso


VERDICTS: list[str] = []


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number} ({label}): {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def test_criterion_1_kkt_residuals():
    start = time.perf_counter()
    gammas = (2.5, 4.0, 8.0)
    converged = 0
    worst = 0.0
    for t in range(100):
        rng = trial_rng(11, t)
        p = int(rng.integers(20, 201))
        m = int(rng.integers(5, 61))
        s = int(rng.integers(1, 9))
        sig = make_sparse_signal(p, s, float(rng.uniform(10, 60)), rng)
        inst = cv.sample_parents(p, m, rng)
        y = sample_poisson(
            apply(cv.sensing_operator(inst), sig.dense()), rng
        ).counts.astype(np.float64)
        pair = cv.surrogate_convolution(inst, y)
        w = cv.nonconstant_weights(inst, y)
        gamma = gammas[t % 3]
        res = weighted_lasso(pair, w, SolverConfig(gamma=gamma))
        if res.converged:
            converged += 1
            worst = max(worst, kkt_check(pair, w, gamma, res.x_hat))
    for t in range(100):
        rng = trial_rng(12, t)
        p = int(rng.integers(10, 101))
        n = int(rng.integers(150, 401))
        q = float(rng.choice([0.25, 0.5, 0.7]))
        s = int(rng.integers(1, 6))
        sig = make_sparse_signal(p, s, float(rng.uniform(10, 40)), rng)
        inst = bn.sample_bernoulli_matrix(n, p, q, rng)
        y = sample_poisson(inst.a @ sig.dense(), rng).counts.astype(np.float64)
        pair = bn.surrogate_bernoulli(inst, y)
        w = bn.nonconstant_weights(inst, y)
        gamma = gammas[t % 3]
        res = weighted_lasso(pair, w, SolverConfig(gamma=gamma))
        if res.converged:
            converged += 1
            worst = max(worst, kkt_check(pair, w, gamma, res.x_hat))
    elapsed = time.perf_counter() - start
    ok = converged == 200 and worst <= 1e-8 and elapsed < 60.0
    _verdict(
        1,
        "kkt-optimality",
        ok,
        f"200 instances, converged {converged}/200, worst residual "
        f"{worst:.3g} <= 1e-8, {elapsed:.1f}s < 60s",
    )


def test_criterion_2_orthonormal_equivalence():
    worst = 0.0
    gammas = (2.2, 4.0, 7.0)
    for t in range(50):
        rng = trial_rng(21, t)
        p = int(rng.integers(3, 30))
        n = p + int(rng.integers(0, 20))
        qmat, _ = np.linalg.qr(rng.normal(size=(n, p)))
        y = rng.normal(size=n) * 3.0
        d = rng.uniform(0.1, 3.0, size=p)
        gamma = gammas[t % 3]
        pair = SurrogatePair(Dense(qmat), y)
        res = weighted_lasso(
            pair, WeightVector(d, "nonconstant"), SolverConfig(gamma=gamma)
        )
        corr = qmat.T @ y
        closed = np.sign(corr) * np.maximum(np.abs(corr) - gamma * d / 2.0, 0.0)
        worst = max(worst, float(np.abs(res.x_hat - closed).max()))
    ok = worst <= 1e-10
    _verdict(
        2,
        "orthonormal-soft-threshold",
        ok,
        f"50 instances, max |solver - closed form| = {worst:.3g} <= 1e-10",
    )


def test_criterion_3_tail_rates():
    report = tail_coverage_test(
        np.ones(50), np.full(50, 2.0), 5.0, 100_000, trial_rng(3)
    )
    lim_a = 2.0 * math.exp(-5.0)
    lim_b = 3.0 * math.exp(-5.0)
    lim_a += 3.0 * math.sqrt(lim_a * (1.0 - lim_a) / 100_000)
    lim_b += 3.0 * math.sqrt(lim_b * (1.0 - lim_b) / 100_000)
    ok = (
        report.failure_rate_bernstein <= lim_a
        and report.failure_rate_empirical <= lim_b
    )
    _verdict(
        3,
        "concentration-tails",
        ok,
        f"theta=5, 1e5 trials: bernstein rate {report.failure_rate_bernstein:.5f} "
        f"<= {lim_a:.5f}, empirical rate {report.failure_rate_empirical:.5f} "
        f"<= {lim_b:.5f}",
    )


def test_criterion_4_weight_coverage():
    start = time.perf_counter()
    counts = {}
    b_const = b_non = 0
    for t in range(500):
        rng = trial_rng(41, t)
        sig = make_sparse_signal(100, 3, 30.0, rng)
        x = sig.dense()
        inst = bn.sample_bernoulli_matrix(5000, 100, 0.5, rng)
        y = sample_poisson(inst.a @ x, rng).counts.astype(np.float64)
        dev = np.abs(deviation_at_truth(bn.surrogate_bernoulli(inst, y), x))
        b_const += int(np.all(bn.constant_weights(inst, y).values >= dev))
        b_non += int(np.all(bn.nonconstant_weights(inst, y).values >= dev))
    counts["bernoulli constant"] = b_const
    counts["bernoulli nonconstant"] = b_non
    c_const = c_non = 0
    for t in range(500):
        rng = trial_rng(42, t)
        sig = make_sparse_signal(500, 5, 50.0, rng)
        x = sig.dense()
        inst = cv.sample_parents(500, 40, rng)
        y = sample_poisson(
            apply(cv.sensing_operator(inst), x), rng
        ).counts.astype(np.float64)
        dev = np.abs(deviation_at_truth(cv.surrogate_convolution(inst, y), x))
        c_const += int(np.all(cv.constant_weights(inst, y).values >= dev))
        c_non += int(np.all(cv.nonconstant_weights(inst, y).values >= dev))
    counts["convolution constant"] = c_const
    counts["convolution nonconstant"] = c_non
    elapsed = time.perf_counter() - start
    ok = all(v >= 475 for v in counts.values()) and elapsed < 600.0
    detail = ", ".join(f"{k} {v}/500" for k, v in counts.items())
    _verdict(
        4,
        "weight-coverage",
        ok,
        f"{detail} (all >= 475), {elapsed:.0f}s < 600s",
    )


def test_criterion_5_structural_identities():
    gaps = {}
    # pair-statistic identity against m * (Gram - I) lags
    gaps["pair-statistic"] = max(
        ustat_check(cv.sample_parents(p, m, trial_rng(51, i)))
        for i, (p, m) in enumerate(((64, 30), (32, 50), (7, 3)))
    )
    # recentring commutes: surrogate map applied to the clean intensity
    worst = 0.0
    for t in range(20):
        rng = trial_rng(52, t)
        p = int(rng.integers(8, 80))
        m = int(rng.integers(1, 40))
        sig = make_sparse_signal(p, int(rng.integers(1, 5)), 20.0, rng)
        inst = cv.sample_parents(p, m, rng)
        clean = apply(cv.sensing_operator(inst), sig.dense())
        pair = cv.surrogate_convolution(inst, clean)
        worst = max(
            worst,
            float(np.abs(pair.y_tilde - apply(pair.a_tilde, sig.dense())).max()),
        )
    gaps["recentring"] = worst
    # counts bookkeeping
    gaps["count-total"] = max(
        abs(float(cv.sample_parents(97, 41, trial_rng(53, t)).counts.sum()) - 41.0)
        for t in range(50)
    )
    # circulant solves agree with their dense materialization
    worst = 0.0
    for t in range(10):
        rng = trial_rng(54, t)
        sig = make_sparse_signal(40, 3, 25.0, rng)
        inst = cv.sample_parents(40, 15, rng)
        y = sample_poisson(
            apply(cv.sensing_operator(inst), sig.dense()), rng
        ).counts.astype(np.float64)
        pair = cv.surrogate_convolution(inst, y)
        dense_pair = SurrogatePair(
            Dense(pair.a_tilde.materialize()),
            pair.y_tilde,
        )
        w = cv.nonconstant_weights(inst, y)
        cfg = SolverConfig(gamma=4.0)
        xa = weighted_lasso(pair, w, cfg).x_hat
        xb = weighted_lasso(dense_pair, w, cfg).x_hat
        worst = max(worst, float(np.abs(xa - xb).max()))
    gaps["circulant-vs-dense"] = worst
    ok = all(v <= 1e-10 for v in gaps.values())
    detail = ", ".join(f"{k} {v:.2g}" for k, v in gaps.items())
    _verdict(5, "structural-identities", ok, f"max gaps: {detail} (all <= 1e-10)")


def test_criterion_6_gram_expectation():
    rb = bernoulli_gram_expectation_check(200, 10, 0.5, 2000, trial_rng(61))
    rb2 = bernoulli_gram_expectation_check(200, 10, 0.25, 2000, trial_rng(62))
    rc = convolution_gram_expectation_check(16, 8, 2000, trial_rng(63))
    zs = (rb.max_z, rb2.max_z, rc.max_z)
    ok = all(z <= 4.0 for z in zs)
    _verdict(
        6,
        "gram-expectation",
        ok,
        f"2000 draws, entrywise max z: bernoulli q=0.5 {zs[0]:.2f}, "
        f"q=0.25 {zs[1]:.2f}, convolution {zs[2]:.2f} (all <= 4)",
    )


def test_criterion_7_conditional_recovery():
    gamma = 6.0
    cfg = SolverConfig(gamma=gamma)
    c0 = (gamma + 2.0) / (gamma - 2.0)
    passing = 0
    bad_support = bad_l2 = bad_linf = 0
    for t in range(60):
        rng = trial_rng(71, t)
        sig = make_sparse_signal(2000, 1, 50.0, rng)
        x = sig.dense()
        inst = cv.sample_parents(2000, 500, rng)
        y = sample_poisson(
            apply(cv.sensing_operator(inst), x), rng
        ).counts.astype(np.float64)
        pair = cv.surrogate_convolution(inst, y)
        w = cv.constant_weights(inst, y)
        xi = gram_deviation(pair.a_tilde)
        delta, valid = re_constant_from_xi(xi, len(sig.support), c0)
        if not (weights_cover(pair, x, w).passed and valid and delta < 1.0):
            continue
        cond, _, _ = support_condition_check(xi, gamma, delta, w, sig.support)
        if not cond:
            continue
        passing += 1
        res = weighted_lasso(pair, w, cfg)
        supp_hat = np.flatnonzero(np.abs(res.x_hat) > cfg.support_eps)
        bounds = theoretical_l2_bound(gamma, delta, w, sig.support)
        err = res.x_hat - x
        bad_support += int(not np.all(np.isin(supp_hat, sig.support)))
        bad_l2 += int(float(np.linalg.norm(err)) > bounds.l2)
        bad_linf += int(float(np.abs(err).max()) > gamma * w.max_weight)
    ok = (
        passing > 0
        and bad_support == 0
        and bad_l2 == 0
        and bad_linf == 0
    )
    _verdict(
        7,
        "conditional-recovery",
        ok,
        f"{passing}/60 trials pass the screening event (nonvacuous); "
        f"violations among them: support {bad_support}, l2 {bad_l2}, "
        f"linf {bad_linf} (all must be 0)",
    )


def test_criterion_8_error_curves():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        model="convolution",
        p=1000,
        s=5,
        m_grid=(10, 20, 40, 80, 160, 320),
        trials=100,
        tune_trials=50,
        gamma_grid=(2.1, 3.0, 4.0, 6.0, 8.0),
        target_l1=100.0,
        master_seed=0,
    )
    rows = run_mse_vs_m(cfg)
    elapsed = time.perf_counter() - start
    wl = {r.m: r.nmse_mean for r in rows if r.estimator == "wlasso_two_step"}
    la = {r.m: r.nmse_mean for r in rows if r.estimator == "lasso_two_step"}
    ls = {r.m: r.nmse_mean for r in rows if r.estimator == "ls_oracle"}
    ms = sorted(wl)
    oracle_under = all(ls[m] <= 1.05 * wl[m] for m in ms)
    separated = all(1.05 * wl[m] <= la[m] for m in ms[:2])
    logm = np.log(ms[:3])
    logw = np.log([wl[m] for m in ms[:3]])
    slope = float(np.polyfit(logm, logw, 1)[0])
    slope_ok = -1.3 <= slope <= -0.7
    top = ms[-1]
    rel_gap = abs(wl[top] - la[top]) / la[top]
    ok = (
        oracle_under
        and separated
        and slope_ok
        and rel_gap <= 0.25
        and elapsed < 1800.0
    )
    _verdict(
        8,
        "desk-error-curves",
        ok,
        f"(i) oracle <= 1.05*weighted at all m: {oracle_under}, weighted "
        f"separated from plain at m={ms[0]},{ms[1]}: {separated}; (ii) small-m "
        f"slope {slope:.2f} in [-1.3,-0.7]; (iii) relative gap {rel_gap:.3f} "
        f"<= 0.25 at m={top}; {elapsed:.0f}s < 1800s",
    )


def test_criterion_9_csv_determinism():
    def build():
        return ExperimentConfig(
            model="convolution",
            p=60,
            s=3,
            m_grid=(8, 16),
            trials=5,
            tune_trials=2,
            gamma_grid=(2.5, 4.0),
            target_l1=30.0,
            master_seed=5,
        )

    first = rows_to_csv(run_mse_vs_m(build())).encode()
    second = rows_to_csv(run_mse_vs_m(build())).encode()
    ok = first == second
    _verdict(
        9,
        "csv-determinism",
        ok,
        f"rerun with identical config+seed: {len(first)} bytes, "
        f"byte-identical {ok}",
    )
