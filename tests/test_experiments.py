"""Monte Carlo harness: seeding, tuning, aggregation, CSV stability."""

import os
import pickle
import subprocess
import sys
from concurrent import futures
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import wlasso.experiments
import wlasso.model
import wlasso.solver
from wlasso.diagnostics import weights_cover
from wlasso.errors import SingularDesignError
from wlasso.model import trial_rng
from wlasso.sensing import draw, surrogate, weights
from wlasso.solver import SolverConfig, detected_support, kkt_check, weighted_lasso
from wlasso.experiments import (
    CSV_HEADER,
    ESTIMATOR_OF,
    TUNE_INDEX_BASE,
    ExperimentConfig,
    TrialOutcome,
    TrialPoint,
    estimates,
    estimator_keys,
    key_gammas,
    m_from_p,
    rows_to_csv,
    run_mse_vs_m,
    run_mse_vs_p,
    run_point,
    run_trial,
    tune_gamma,
)

from reference import count_products, peak_bytes
from test_golden import GOLDEN, SWEEPS


def conv_config(**over):
    base = dict(
        model="convolution",
        p=60,
        s=3,
        m_grid=(8, 16),
        trials=6,
        tune_trials=3,
        gamma_grid=(2.1, 4.0),
        target_l1=30.0,
        master_seed=5,
    )
    base.update(over)
    return ExperimentConfig(**base)


def conv_point(cfg, m=None):
    return TrialPoint(cfg, cfg.p, cfg.m_grid[0] if m is None else m)


def bern_point():
    return conv_point(conv_config(model="bernoulli", p=40, n=300, q=0.5, m_grid=()), m=0)


def one_sweep_config(gamma):
    """A stand-in for experiments._solver_config that stops every solve after one sweep."""
    return SolverConfig(gamma, max_iter=1)


@pytest.fixture
def counting_pool(monkeypatch):
    """The list of process pools the sweep builds, one entry per pool."""
    built = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(wlasso.experiments, "ProcessPoolExecutor", CountingPool)
    return built


@pytest.fixture
def recording_pool(monkeypatch):
    """An in-process stand-in for the sweep's process pool.  It records the worker
    count each pool is asked for and each task's (function, point m), and runs
    tasks only when the sweep waits: one per wait, the running task at index
    `pick` in submission order."""
    record = SimpleNamespace(workers=[], submits=[], pick=0)

    class RecordingPool(Executor):
        def __init__(self, workers):
            record.workers.append(workers)

        def submit(self, fn, point):
            record.submits.append((fn, point.m))
            task = Future()
            task.run = lambda: fn(point)
            return task

    def wait(tasks, return_when):
        task = [t for t in tasks if not t.done()][record.pick]
        task.set_result(task.run())
        return futures.wait(tasks, return_when=return_when)

    monkeypatch.setattr(wlasso.experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(wlasso.experiments, "wait", wait)
    return record


def cells(point, *gammas):
    """run_trial's cells for a run over gammas: each estimator key at every gamma
    it would be tuned over were gammas the grid."""
    cfg = replace(point.cfg, gamma_grid=gammas)
    return tuple(key + (g,) for key in estimator_keys(cfg) for g in key_gammas(cfg, key))


class TestConfig:
    def test_shares_no_setting_with_the_solver(self):
        # a solve setting lives on SolverConfig alone
        shared = {f.name for f in fields(ExperimentConfig)} & {f.name for f in fields(SolverConfig)}
        assert not shared

    def test_one_solver_config_per_gamma(self):
        solver_config = wlasso.experiments._solver_config
        assert solver_config(4.0) is solver_config(4.0)
        assert solver_config(3.0) is not solver_config(4.0)
        assert solver_config(1.5).gamma == 1.5  # the gamma <= 2 warning stays silenced

    def test_m_rule_frozen(self):
        assert m_from_p(5000, 0.25) == 151
        assert m_from_p(1000, 0.25) == 55

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            conv_config(model="gaussian")

    def test_rejects_nonincreasing_grids(self):
        with pytest.raises(ValueError):
            conv_config(m_grid=(16, 8))
        with pytest.raises(ValueError):
            conv_config(gamma_grid=(4.0, 3.0))

    def test_rejects_small_gamma_by_default(self):
        with pytest.raises(ValueError):
            conv_config(gamma_grid=(1.5, 4.0))
        cfg = conv_config(gamma_grid=(1.5, 4.0), allow_small_gamma=True)
        assert cfg.gamma_grid == (1.5, 4.0)

    def test_rejects_empty_gamma_grid(self):
        with pytest.raises(ValueError):
            conv_config(gamma_grid=())

    def test_rejects_estimator_weight_mismatch(self):
        with pytest.raises(ValueError):
            conv_config(estimators=("lasso_two_step",), weight_kinds=("nonconstant",))
        with pytest.raises(ValueError):
            conv_config(estimators=("wlasso_two_step",), weight_kinds=("constant",))

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            conv_config(estimators=("ridge",))
        with pytest.raises(ValueError):
            conv_config(weight_kinds=("adaptive",))

    def test_rejects_empty_estimators(self):
        with pytest.raises(ValueError, match="^estimators must be nonempty$"):
            conv_config(estimators=())

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            conv_config(trials=0)
        with pytest.raises(ValueError):
            conv_config(tune_trials=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^master_seed must be >= 0"):
            conv_config(master_seed=-1)

    def test_frozen(self):
        cfg = conv_config()
        with pytest.raises(FrozenInstanceError):
            cfg.trials = 7


class TestTrialPoint:
    def test_equal_points_hash_equal(self):
        # perfbench's draw_reuse_ratio counts distinct (point, trial index) keys
        a, b = conv_point(conv_config()), conv_point(conv_config())
        assert a == b and hash(a) == hash(b)
        assert len({a, b, conv_point(conv_config(), m=16)}) == 2

    def test_survives_pickle(self):
        # pool workers receive each point pickled
        point = conv_point(conv_config(weight_kinds=["constant", "nonconstant"]))
        again = pickle.loads(pickle.dumps(point))
        assert again == point and hash(again) == hash(point)
        assert again.cfg.weight_kinds == ("constant", "nonconstant")


class TestEstimatorKeys:
    def test_order_and_expansion(self):
        cfg = conv_config(weight_kinds=("constant", "nonconstant", "oracle"))
        keys = estimator_keys(cfg)
        assert keys == [
            ("ls_oracle", "none"),
            ("lasso_two_step", "constant"),
            ("wlasso_two_step", "nonconstant"),
            ("wlasso_two_step", "oracle"),
        ]

    def test_subset(self):
        cfg = conv_config(estimators=("wlasso_two_step",), weight_kinds=("oracle",))
        assert estimator_keys(cfg) == [("wlasso_two_step", "oracle")]


class TestRunTrial:
    def test_deterministic(self):
        cfg = conv_config()
        point = conv_point(cfg)
        a = run_trial(point, 2, cells(point, 4.0))
        b = run_trial(point, 2, cells(point, 4.0))
        assert a.nmse == b.nmse
        assert a.coverage == b.coverage
        assert a.failures == b.failures

    def test_draws_do_not_depend_on_gamma(self):
        cfg = conv_config()
        point = conv_point(cfg)
        a = run_trial(point, 3, cells(point, 2.1))
        b = run_trial(point, 3, cells(point, 4.0))
        assert a.nmse[("ls_oracle", "none", 0.0)] == b.nmse[("ls_oracle", "none", 0.0)]

    def test_zero_signal_zero_error(self):
        cfg = conv_config(s=0, target_l1=0.0)
        point = conv_point(cfg)
        out = run_trial(point, 0, cells(point, 4.0))
        assert out.failures == {}
        for key in cells(point, 4.0):
            assert out.nmse[key] == 0.0

    def test_noiseless_oracle_interpolates(self):
        point = conv_point(conv_config(noiseless=True))
        out = run_trial(point, 1, cells(point, 4.0))
        assert out.nmse[("ls_oracle", "none", 0.0)] <= 1e-16

    def test_bernoulli_trial_runs(self):
        point = bern_point()
        out = run_trial(point, 0, cells(point, 4.0))
        assert set(out.nmse) == set(cells(point, 4.0))
        assert all(v >= 0 for v in out.nmse.values())
        assert set(out.coverage) == {"constant", "nonconstant"}

    def test_nonconverged_solve_is_a_failure(self, monkeypatch):
        monkeypatch.setattr(wlasso.experiments, "_solver_config", one_sweep_config)
        point = conv_point(conv_config(target_l1=100.0))
        out = run_trial(point, 0, cells(point, 4.0))
        for key in (("lasso_two_step", "constant", 4.0), ("wlasso_two_step", "nonconstant", 4.0)):
            assert key not in out.nmse
            assert out.failures[key].startswith(
                "NonConvergenceError: not converged after 1 sweeps (KKT residual "
            )
        assert ("ls_oracle", "none", 0.0) in out.nmse

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    def test_one_refit_per_distinct_support(self, monkeypatch, model):
        if model == "convolution":
            point = conv_point(conv_config(target_l1=100.0))
        else:
            point = bern_point()
        supports, refits = [], []
        solve, refit = wlasso.experiments.weighted_lasso, wlasso.experiments.oracle_least_squares

        def recording_solve(pair, w, config, x0=None):
            result = solve(pair, w, config, x0)
            supports.append(detected_support(result.x_hat, config.support_eps).tobytes())
            return result

        def counting_refit(pair, support):
            refits.append(support.tobytes())
            return refit(pair, support)

        monkeypatch.setattr(wlasso.experiments, "weighted_lasso", recording_solve)
        monkeypatch.setattr(wlasso.experiments, "oracle_least_squares", counting_refit)
        # at gamma 1e6 the constant weights detect nothing: the empty support is
        # refit like any other, once
        empty = (("lasso_two_step", "constant", 1e6),)
        for i in range(3):
            supports.clear()
            refits.clear()
            out = run_trial(point, i, cells(point, 2.1, 4.0) + empty)
            cfg = point.cfg
            supports.append(np.flatnonzero(draw(
                cfg.model, point.p, cfg.s, cfg.target_l1, trial_rng(cfg.master_seed, i),
                m=point.m, n=cfg.n, q=cfg.q,
            ).x_star).tobytes())
            distinct = set(supports)
            assert b"" in distinct
            assert len(supports) > len(distinct) > 2
            assert sorted(refits) == sorted(distinct)
            assert not out.failures

    def test_failed_weights_fail_each_of_their_cells(self):
        # nq = 10 is too small for the l1 estimator both Bernoulli weight kinds read
        cfg = ExperimentConfig(
            model="bernoulli", p=40, n=20, s=3, target_l1=30.0, p_grid=(40,),
            trials=2, tune_trials=2, gamma_grid=(2.1, 4.0),
        )
        point = TrialPoint(cfg, 40, 0)
        out = run_trial(point, 0, cells(point, 2.1, 4.0))
        weighted = [
            (est, kind, gamma) for gamma in (2.1, 4.0)
            for est, kind in (("lasso_two_step", "constant"), ("wlasso_two_step", "nonconstant"))
        ]
        assert set(out.failures) == set(weighted)
        assert all(v.startswith("RegimeViolationError: ") for v in out.failures.values())
        assert set(out.nmse) == {("ls_oracle", "none", 0.0)}
        assert out.coverage == {}
        for line in rows_to_csv(run_mse_vs_p(cfg)).splitlines()[1:]:
            row = dict(zip(CSV_HEADER.split(","), line.split(",")))
            if row["estimator"] != "ls_oracle":
                assert row["failures"] == str(cfg.trials), line
                assert row["gamma_star"] == "", line

    def test_failed_refit_fails_each_of_its_cells(self, monkeypatch):
        point = bern_point()
        calls = []

        def singular(pair, support):
            calls.append(support.tobytes())
            raise SingularDesignError(0.0, 1.0)

        monkeypatch.setattr(wlasso.experiments, "oracle_least_squares", singular)
        out = run_trial(point, 0, cells(point, 2.1, 4.0))
        assert not out.nmse
        assert set(out.failures) == set(cells(point, 2.1) + cells(point, 4.0))
        assert all(v.startswith("SingularDesignError") for v in out.failures.values())
        # a support shared by several cells is refit, and fails, once per cell
        assert len(calls) == len(out.failures) > len(set(calls))

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    @pytest.mark.parametrize("gammas", [(2.1, 3.0, 4.0, 6.0, 8.0), (4.0,)])
    @pytest.mark.parametrize("kinds", [("constant", "nonconstant"),
                                       ("constant", "nonconstant", "oracle")])
    def test_one_product_each_per_trial(self, monkeypatch, model, gammas, kinds):
        # the intensity and aty; the score at the truth and every solve read Gram rows
        over = dict(weight_kinds=kinds)
        if model == "bernoulli":
            over.update(model="bernoulli", p=40, n=300, m_grid=())
        cfg = conv_config(**over)
        point = conv_point(cfg, m=0 if model == "bernoulli" else None)
        for i in range(2):
            calls = count_products(monkeypatch)
            out = run_trial(point, i, cells(point, *gammas))
            assert not out.failures and set(out.coverage) == set(kinds)
            assert calls == {"apply": 1, "adjoint": 1}

    def test_bernoulli_trial_holds_one_design(self):
        # the 0/1 draw is the trial's one n x p float array: its surrogate is
        # applied from it, so the peak stays below 1.5 of those arrays
        cfg = conv_config(model="bernoulli", p=200, n=2000, q=0.5, m_grid=(),
                          gamma_grid=(2.1, 3.0, 4.0, 6.0, 8.0))
        point = conv_point(cfg, m=0)
        grid = cells(point, *cfg.gamma_grid)
        run_trial(point, 0, grid)  # first-use imports and caches
        assert peak_bytes(lambda: run_trial(point, 1, grid)) < 1.5 * 2000 * 200 * 8

    def test_coverage_is_weights_cover_of_each_kind(self):
        # without the second-order term (c = 0) the estimated weights of this
        # heavy signal fail to cover on some draws: trial 18 fails with both
        # estimated kinds, trial 21 with the nonconstant one (found by search)
        kinds = ("constant", "nonconstant", "oracle")
        cfg = conv_config(model="bernoulli", p=40, n=300, m_grid=(), weight_c=0.0,
                          target_l1=1000.0, weight_kinds=kinds)
        point = conv_point(cfg, m=0)
        outcomes = set()
        for i in (0, 18, 21):
            got = run_trial(point, i, cells(point, 4.0)).coverage
            inst, y, x_star = draw(
                cfg.model, point.p, cfg.s, cfg.target_l1, trial_rng(cfg.master_seed, i),
                m=0, n=cfg.n, q=cfg.q,
            )
            pair = surrogate(inst, y)
            deviation = pair.score(x_star)
            want = {
                kind: weights_cover(deviation, weights(kind, inst, y, deviation, c=0.0)).passed
                for kind in kinds
            }
            assert got == want
            outcomes.add(tuple(got[kind] for kind in kinds))
        assert outcomes == {(True, True, True), (False, False, True), (True, False, True)}

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    def test_gammas_share_one_draw(self, model):
        # one run over two gammas gives exactly what a run at each gamma gives
        if model == "convolution":
            point = conv_point(conv_config(weight_kinds=("constant", "nonconstant", "oracle")))
        else:
            point = bern_point()
        for i in range(3):
            both = run_trial(point, i, cells(point, 2.1, 4.0))
            low = run_trial(point, i, cells(point, 2.1))
            high = run_trial(point, i, cells(point, 4.0))
            assert both.nmse == {**low.nmse, **high.nmse}
            assert both.failures == {**low.failures, **high.failures}
            assert both.coverage == low.coverage == high.coverage
            assert set(both.nmse) | set(both.failures) == set(cells(point, 2.1) + cells(point, 4.0))


class TestWarmChain:
    """estimates starts each solve from the last converged result of its call."""

    @pytest.mark.parametrize("model, p, s, ms", [
        ("convolution", 1000, 5, (10, 40, 160, 320)),
        ("convolution", 5000, 50, (10, 40, 160, 320)),
        ("bernoulli", 200, 5, (None,)),
    ])
    def test_detects_the_cold_support(self, model, p, s, ms):
        # tuning's cells: each kind's grid in descending gamma, the second
        # kind's first solve warm from the first kind's last
        grid, kinds = ExperimentConfig().gamma_grid, ("constant", "nonconstant")
        chained = [(ESTIMATOR_OF[kind], kind, g) for kind in kinds for g in reversed(grid)]
        for m in ms:
            for trial in range(2):
                inst, y, x_star = draw(model, p, s, 100.0, trial_rng(7, trial), m=m, n=2000, q=0.5)
                pair = surrogate(inst, y)
                built = {kind: weights(kind, inst, y) for kind in kinds}
                for (_, kind, gamma), result, _ in estimates(pair, x_star, built, chained):
                    cold = weighted_lasso(pair, built[kind], SolverConfig(gamma))
                    assert result.converged and cold.converged
                    assert np.array_equal(detected_support(result.x_hat),
                                          detected_support(cold.x_hat))
                    kkt = kkt_check(pair, built[kind], gamma, result.x_hat)
                    assert kkt < SolverConfig.tol_kkt

    def test_nonconverged_result_is_never_passed_on(self, monkeypatch):
        # at 1e6 the constant weights converge at zero in one sweep; at 2.1 and
        # 4.0 one sweep does not converge, so each later solve starts from the 1e6 result
        monkeypatch.setattr(wlasso.experiments, "_solver_config", one_sweep_config)
        solve = wlasso.experiments.weighted_lasso
        starts, results = [], []

        def recording_solve(pair, w, config, x0=None):
            starts.append(x0)
            results.append(solve(pair, w, config, x0))
            return results[-1]

        monkeypatch.setattr(wlasso.experiments, "weighted_lasso", recording_solve)
        point = conv_point(conv_config(target_l1=100.0))
        run_trial(point, 0, (("lasso_two_step", "constant", 1e6),) + cells(point, 2.1, 4.0))
        assert [r.converged for r in results] == [True, False, False, False, False]
        assert starts[0] is None
        assert all(x0 is results[0] for x0 in starts[1:])

    @pytest.mark.parametrize("point", [
        conv_point(conv_config(p=1000, s=5, target_l1=100.0), m=40), bern_point(),
    ])
    def test_one_score_per_round(self, point, monkeypatch):
        # the truth's score, the cold start's, then one per working set: a warm
        # start reads its score off the result it starts from
        score, build = wlasso.model.SurrogatePair.score, wlasso.solver._working_set
        counts = {"score": 0, "rounds": 0}

        def counted_score(pair, *args):
            counts["score"] += 1
            return score(pair, *args)

        def counted_build(*args):
            counts["rounds"] += 1
            return build(*args)

        monkeypatch.setattr(wlasso.model.SurrogatePair, "score", counted_score)
        monkeypatch.setattr(wlasso.solver, "_working_set", counted_build)
        chained = tuple(cell for g in (8.0, 6.0, 4.0, 3.0, 2.1) for cell in cells(point, g)
                        if cell[0] != "ls_oracle")
        for index in range(3):
            counts.update(score=0, rounds=0)
            outcome = run_trial(point, index, chained)
            assert not outcome.failures and len(outcome.nmse) == len(chained)
            assert counts["rounds"] >= len(chained)
            assert counts["score"] == counts["rounds"] + 2


class TestTuneGamma:
    def test_tuning_lists_each_key_in_descending_gamma(self):
        cfg = conv_config(gamma_grid=(2.1, 3.0, 4.0))
        _, tuned = wlasso.experiments._tuning(cfg)
        for key in estimator_keys(cfg):
            gammas = [cell[2] for cell in tuned if cell[:2] == key]
            assert gammas == ([] if key[0] == "ls_oracle" else [4.0, 3.0, 2.1])

    def test_values_come_from_grid(self):
        cfg = conv_config()
        got = tune_gamma(conv_point(cfg))
        assert got[("ls_oracle", "none")] == 0.0
        for key, g in got.items():
            if key[0] != "ls_oracle":
                assert g in cfg.gamma_grid

    def test_single_element_grid_shortcut(self):
        cfg = conv_config(gamma_grid=(4.0,))
        got = tune_gamma(conv_point(cfg))
        assert got[("wlasso_two_step", "nonconstant")] == 4.0

    def test_ties_break_small_on_noiseless_oracle(self, monkeypatch):
        # on noiseless data the oracle recovers exactly at every gamma, so each
        # trial's nmse is one rounding-level value, here bit-equal across the
        # grid: the tie must go to the first grid entry
        nmse = (1.078e-27, 1.474e-28, 1.668e-28)

        def fake_map(point, indices, cells):
            return [TrialOutcome({c: nmse[j] for c in cells}, {}, {})
                    for j, _ in enumerate(indices)]

        monkeypatch.setattr(wlasso.experiments, "_map_trials", fake_map)
        cfg = conv_config(tune_trials=len(nmse), estimators=("wlasso_two_step",),
                          weight_kinds=("oracle",), noiseless=True, gamma_grid=(2.5, 3.0, 4.0))
        assert tune_gamma(conv_point(cfg))[("wlasso_two_step", "oracle")] == 2.5

    def test_gammas_compared_on_trials_finished_at_every_gamma(self, monkeypatch):
        # at 4.0 the second trial fails; scored on the first alone, 2.1 wins,
        # though its mean over both trials is far above 4.0's over one
        key = ("lasso_two_step", "constant")
        nmse = {2.1: (1.0, 100.0), 4.0: (2.0, None)}

        def fake_map(point, indices, cells):
            return [
                TrialOutcome({c: nmse[c[2]][j] for c in cells if nmse[c[2]][j] is not None},
                             {}, {})
                for j, _ in enumerate(indices)
            ]

        monkeypatch.setattr(wlasso.experiments, "_map_trials", fake_map)
        cfg = conv_config(tune_trials=2, estimators=("lasso_two_step",),
                          weight_kinds=("constant",))
        assert tune_gamma(conv_point(cfg))[key] == 2.1
        nmse[4.0] = (None, None)
        assert tune_gamma(conv_point(cfg))[key] is None

    def test_stability_across_disjoint_splits(self):
        # Two disjoint 100-trial tuning splits per repetition.  After the
        # two-step refit the mean nmse is flat to ~1% across {2.1, 3, 4}, so
        # the exact argmin flips on noise; measured agreement is 14/20 with
        # these seeds.  What is perfectly stable is the region: no split ever
        # selects a gamma from the diverging tail {6, 8}.
        reps, agree = 20, 0
        grid = (2.1, 3.0, 4.0, 6.0, 8.0)
        key = ("wlasso_two_step", "nonconstant")
        selections = []
        for rep in range(reps):
            cfg = ExperimentConfig(
                model="convolution",
                p=200,
                s=5,
                m_grid=(30,),
                trials=1,
                tune_trials=100,
                gamma_grid=grid,
                target_l1=100.0,
                master_seed=1000 + rep,
                estimators=("wlasso_two_step",),
                weight_kinds=("nonconstant",),
            )
            point = conv_point(cfg, m=30)
            first = tune_gamma(point)[key]
            tuned = cells(point, *grid)
            outcomes = [run_trial(point, TUNE_INDEX_BASE + 100 + j, tuned) for j in range(100)]
            means = [np.mean([o.nmse[key + (gamma,)] for o in outcomes]) for gamma in grid]
            second = grid[int(np.argmin(means))]
            selections.extend([first, second])
            if first == second:
                agree += 1
        assert agree >= 13
        assert all(g <= 4.0 for g in selections)


class TestRunPoint:
    def test_row_shape_convolution(self):
        cfg = conv_config()
        rows = run_point(conv_point(cfg, m=16))
        keys = estimator_keys(cfg)
        assert [(r.estimator, r.weight_kind) for r in rows] == keys
        for r in rows:
            assert r.model == "convolution"
            assert r.m == 16 and r.q is None and r.n == cfg.p
            assert r.trials == cfg.trials and r.seed == cfg.master_seed
            assert r.failures == 0
            assert r.nmse_mean is not None and r.nmse_mean >= 0
            assert 0.0 <= r.coverage_rate <= 1.0

    def test_ls_oracle_row_conventions(self):
        cfg = conv_config()
        rows = run_point(conv_point(cfg))
        ls = next(r for r in rows if r.estimator == "ls_oracle")
        assert ls.weight_kind == "none"
        assert ls.gamma_star == 0.0
        assert ls.coverage_rate == 1.0

    def test_row_shape_bernoulli(self):
        cfg = conv_config(model="bernoulli", p=40, n=300, q=0.5, m_grid=())
        rows = run_point(conv_point(cfg, m=0))
        for r in rows:
            assert r.m is None and r.q == 0.5 and r.n == 300

    def test_one_draw_per_trial(self, monkeypatch):
        # tuning draws each of its trials once for every tuned key's grid, and
        # evaluation each of its trials once for every key at its own gamma
        calls = []

        def counting_draw(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(wlasso.experiments, "draw", counting_draw)
        cfg = conv_config(gamma_grid=(2.1, 3.0, 4.0))
        run_point(conv_point(cfg, m=16))
        assert len(calls) == cfg.tune_trials + cfg.trials

    def test_each_key_solved_at_its_own_gamma_alone(self, monkeypatch):
        # in this golden sweep lasso tunes to 4.0 and wlasso to 2.1 at one
        # point; evaluation still solves each tuned key once per trial
        solved = []
        solve = wlasso.experiments.weighted_lasso

        def counting_solve(pair, w, config, x0=None):
            solved.append(config.gamma)
            return solve(pair, w, config, x0)

        monkeypatch.setattr(wlasso.experiments, "weighted_lasso", counting_solve)
        name = "convolution_mse_vs_m_s30.csv"
        run, over = SWEEPS[name]
        cfg = ExperimentConfig(master_seed=5, **over)
        rows = run(cfg)
        assert rows_to_csv(rows).encode() == (GOLDEN / name).read_bytes()
        assert any(
            {r.gamma_star for r in rows if r.m == m and r.estimator != "ls_oracle"} == {2.1, 4.0}
            for m in cfg.m_grid
        )
        tuned = [key for key in estimator_keys(cfg) if len(key_gammas(cfg, key)) > 1]
        per_key = cfg.tune_trials * len(cfg.gamma_grid) + cfg.trials
        assert len(solved) == len(cfg.m_grid) * len(tuned) * per_key == 28


class TestSweeps:
    def test_m_sweep_needs_convolution(self):
        with pytest.raises(ValueError, match="m_grid"):
            conv_config(model="bernoulli", p=40, n=300, m_grid=(8, 16))

    def test_empty_sweep_gives_empty_table(self):
        cfg = conv_config(m_grid=())
        assert run_mse_vs_m(cfg) == []
        assert rows_to_csv([]) == CSV_HEADER + "\n"

    def test_rows_grouped_by_increasing_m(self):
        cfg = conv_config()
        rows = run_mse_vs_m(cfg)
        per_point = len(estimator_keys(cfg))
        ms = [r.m for r in rows]
        assert ms == [8] * per_point + [16] * per_point

    def test_byte_identical_reruns_and_thread_counts(self):
        cfg = conv_config()
        a = rows_to_csv(run_mse_vs_m(cfg, threads=1))
        b = rows_to_csv(run_mse_vs_m(cfg, threads=1))
        c = rows_to_csv(run_mse_vs_m(cfg, threads=2))
        assert a == b == c

    def test_one_pool_per_sweep(self, counting_pool):
        cfg = conv_config()
        serial = rows_to_csv(run_mse_vs_m(cfg, threads=1))
        assert counting_pool == []
        assert rows_to_csv(run_mse_vs_m(cfg, threads=2)) == serial
        assert len(counting_pool) == 1

    def test_threads_zero_counts_usable_cores(self, monkeypatch, counting_pool):
        # one usable core runs in-process, as at --threads 1, whatever cpu_count says
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cfg = conv_config()
        assert rows_to_csv(run_mse_vs_m(cfg, threads=0)) == rows_to_csv(run_mse_vs_m(cfg))
        assert counting_pool == []

    @pytest.mark.parametrize("over", [
        dict(model="bernoulli", p=40, n=300, q=0.5, m_grid=(), p_grid=(20, 30)),
        dict(estimators=("ls_oracle",)),  # runs no tuning trial
    ], ids=["bernoulli_p_sweep", "ls_oracle_only"])
    def test_pooled_sweep_matches_in_process(self, over):
        cfg = conv_config(**over)
        sweep = run_mse_vs_p if cfg.p_grid else run_mse_vs_m
        assert rows_to_csv(sweep(cfg, threads=2)) == rows_to_csv(sweep(cfg, threads=1))

    @pytest.mark.parametrize("pick", [0, -1], ids=["oldest_first", "newest_first"])
    def test_pooled_sweep_runs_each_point_once_largest_first(self, recording_pool, pick):
        # one pool task per point, run_point itself, handed out in decreasing m; the
        # rows fold back in point order whichever running point completes first
        recording_pool.pick = pick
        cfg = conv_config(m_grid=(8, 12, 16), trials=7, tune_trials=5)
        serial = rows_to_csv(run_mse_vs_m(cfg, threads=1))
        assert rows_to_csv(run_mse_vs_m(cfg, threads=2)) == serial
        assert recording_pool.workers == [2]
        assert recording_pool.submits == [(run_point, 16), (run_point, 12), (run_point, 8)]

    def test_pool_has_at_most_one_worker_per_point(self, recording_pool):
        # a fork pool starts every worker it is asked for at its first submit
        cfg = conv_config()  # two points
        assert rows_to_csv(run_mse_vs_m(cfg, threads=64)) == rows_to_csv(run_mse_vs_m(cfg))
        assert recording_pool.workers == [2]
        run_mse_vs_m(conv_config(m_grid=(8,)), threads=2)
        assert recording_pool.workers == [2]

    def test_pooled_sweep_fails_fast(self, monkeypatch, tmp_path):
        # the first point submitted, the largest m, raises at its first draw: no
        # other point starts, the one running finishes (1 + 150 of the 900 draws),
        # and the sweep raises what it raises at one thread
        log = tmp_path / "draws.txt"

        def failing_draw(*args, **kwargs):
            with open(log, "a") as f:  # forked workers inherit this patch
                f.write("draw\n")
            if kwargs["m"] == 18:
                raise RuntimeError("no draw at m = 18")
            return draw(*args, **kwargs)

        monkeypatch.setattr(wlasso.experiments, "draw", failing_draw)
        cfg = conv_config(m_grid=(8, 10, 12, 14, 16, 18), trials=100, tune_trials=50)
        for threads in (1, 2):
            log.write_text("")
            with pytest.raises(RuntimeError) as info:
                run_mse_vs_m(cfg, threads=threads)
            assert (type(info.value), str(info.value)) == (RuntimeError, "no draw at m = 18")
        total = len(cfg.m_grid) * (cfg.tune_trials + cfg.trials)
        assert len(log.read_text().splitlines()) < total / 2

    def test_serial_sweep_nests_every_trial_in_its_point(self, monkeypatch):
        # a layer profile reads a point's own time as run_point's minus run_trial's
        calls, depth = [], [0]  # (name, run_point calls open around it)

        def nested(name):
            inner = getattr(wlasso.experiments, name)

            def traced(*args, **kwargs):
                calls.append((name, depth[0]))
                depth[0] += name == "run_point"
                try:
                    return inner(*args, **kwargs)
                finally:
                    depth[0] -= name == "run_point"
            return traced

        for name in ("run_point", "tune_gamma", "run_trial"):
            monkeypatch.setattr(wlasso.experiments, name, nested(name))
        cfg = conv_config()
        run_mse_vs_m(cfg, threads=1)
        points = len(cfg.m_grid)
        assert calls.count(("run_point", 0)) == calls.count(("tune_gamma", 1)) == points
        assert calls.count(("run_trial", 1)) == points * (cfg.tune_trials + cfg.trials)
        assert len(calls) == points * (2 + cfg.tune_trials + cfg.trials)

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    def test_trial_imports_nothing(self, model):
        # pool workers are forked after `import wlasso`: a module that a trial
        # loads on first use would be imported again in every worker of every sweep
        point = "conv_point(conv_config())" if model == "convolution" else "bern_point()"
        code = "\n".join([
            "import sys",
            "from wlasso.experiments import run_trial",
            "from test_experiments import bern_point, cells, conv_config, conv_point",
            "before = set(sys.modules)",
            f"run_trial(point := {point}, 0, cells(point, 2.1, 4.0))",
            "print(sorted(set(sys.modules) - before))",
        ])
        src = Path(wlasso.experiments.__file__).resolve().parents[1]
        path = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_nonconverged_solves_counted_in_csv(self, monkeypatch, threads):
        # no solve converges in one sweep, so no estimator can be tuned either
        monkeypatch.setattr(wlasso.experiments, "_solver_config", one_sweep_config)
        cfg = conv_config(target_l1=100.0)
        lines = rows_to_csv(run_mse_vs_m(cfg, threads=threads)).splitlines()
        header = CSV_HEADER.split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            oracle = row["estimator"] == "ls_oracle"
            assert int(row["failures"]) == (0 if oracle else cfg.trials), line
            assert row["gamma_star"] == ("0" if oracle else ""), line
            assert (row["nmse_mean"] == "") is not oracle, line

    @pytest.mark.parametrize("sweep", [run_mse_vs_m, run_mse_vs_p])
    def test_negative_threads_rejected(self, sweep):
        cfg = conv_config(p_grid=(60,), m_grid=()) if sweep is run_mse_vs_p else conv_config()
        with pytest.raises(ValueError, match="threads"):
            sweep(cfg, threads=-1)

    def test_p_sweep_bernoulli_runs(self):
        cfg = conv_config(
            model="bernoulli", p=40, n=300, q=0.5, m_grid=(), p_grid=(20, 30)
        )
        rows = run_mse_vs_p(cfg)
        assert {r.p for r in rows} == {20, 30}
        assert all(r.m is None for r in rows)

    def test_p_sweep_improves_with_dimension(self):
        # desk preset: wlasso nmse decreasing in p, lasso/wlasso ratio > 1.
        # m_coef=0.08 keeps the largest p unsaturated; at the 0.25 default
        # both two-step estimators recover the support in every trial from
        # p=500 up and the refits tie exactly.
        cfg = ExperimentConfig(
            model="convolution",
            p_grid=(250, 500, 1000, 2000),
            s=5,
            trials=100,
            tune_trials=50,
            gamma_grid=(2.1, 3.0, 4.0, 6.0, 8.0),
            target_l1=100.0,
            master_seed=11,
            m_coef=0.08,
        )
        rows = run_mse_vs_p(cfg)
        wl = [
            r.nmse_mean
            for r in rows
            if r.estimator == "wlasso_two_step" and r.weight_kind == "nonconstant"
        ]
        la = [r.nmse_mean for r in rows if r.estimator == "lasso_two_step"]
        assert len(wl) == len(la) == 4
        assert all(b < a for a, b in zip(wl, wl[1:]))
        assert all(l / w > 1.0 for l, w in zip(la, wl))


class TestCsv:
    def test_header_frozen(self):
        assert CSV_HEADER == (
            "model,p,s,m,n,q,estimator,weight_kind,gamma_star,trials,failures,"
            "nmse_mean,nmse_stderr,coverage_rate,seed"
        )

    def test_field_layout(self):
        cfg = conv_config()
        text = rows_to_csv(run_point(conv_point(cfg)))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        first = lines[1].split(",")
        assert len(first) == 15
        assert first[0] == "convolution"
        assert first[3] == "8" and first[4] == "60" and first[5] == ""

    def test_float_format_is_compact(self):
        cfg = conv_config()
        text = rows_to_csv(run_point(conv_point(cfg)))
        # gamma column renders 2.1 as written, not 2.1000000000
        assert ",2.1," in text or ",4," in text


class TestBehavioralComparisons:
    def test_two_step_beats_first_stage_usually(self):
        # refit-vs-first-stage comparison on 200 seeded draws
        from wlasso.convolution import (
            nonconstant_weights,
            sample_parents,
            sensing_operator,
            surrogate_convolution,
        )
        from wlasso.model import apply, make_sparse_signal, sample_poisson, trial_rng
        from wlasso.solver import SolverConfig, two_step, weighted_lasso

        wins = 0
        for seed in range(200):
            rng = trial_rng(777, seed)
            sig = make_sparse_signal(200, 5, 100.0, rng)
            x_star = sig.dense()
            inst = sample_parents(200, 20, rng)
            y = sample_poisson(
                apply(sensing_operator(inst), x_star), rng
            ).counts.astype(float)
            pair = surrogate_convolution(inst, y)
            w = nonconstant_weights(inst, y)
            first = weighted_lasso(pair, w, SolverConfig(gamma=4.0)).x_hat
            _, refit = two_step(first, pair)
            if np.sum((refit - x_star) ** 2) <= np.sum((first - x_star) ** 2):
                wins += 1
        assert wins >= 160

    def test_weighted_beats_plain_majority(self):
        cfg = ExperimentConfig(
            model="convolution",
            p=200,
            s=5,
            m_grid=(20,),
            trials=200,
            tune_trials=1,
            gamma_grid=(4.0,),
            target_l1=100.0,
            master_seed=31,
        )
        point = conv_point(cfg, m=20)
        wl_wins = 0
        for i in range(cfg.trials):
            out = run_trial(point, i, cells(point, 4.0))
            if out.nmse[("wlasso_two_step", "nonconstant", 4.0)] <= out.nmse[
                ("lasso_two_step", "constant", 4.0)
            ]:
                wl_wins += 1
        assert wl_wins > 100
