"""Command-line dispatch: exit codes, output shapes, seeding, precedence."""

import ast
from pathlib import Path

import numpy as np
import pytest

import wlasso.cli
import wlasso.experiments
import wlasso.model
from wlasso.bernoulli import sample_bernoulli_matrix
from wlasso.cli import main
from wlasso.convolution import sample_parents, sensing_operator
from wlasso.experiments import ExperimentConfig, TrialPoint, run_trial
from wlasso.model import apply, sample_poisson, trial_rng


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_convolution_npz(path, with_x_star=True, with_y=True):
    rng = trial_rng(0)
    inst = sample_parents(30, 12, rng)
    x_star = np.zeros(30)
    x_star[[3, 17]] = [5.0, 7.0]
    y = sample_poisson(apply(sensing_operator(inst), x_star), rng).counts
    arrays = {"counts": inst.counts}
    if with_y:
        arrays["y"] = y.astype(np.float64)
    if with_x_star:
        arrays["x_star"] = x_star
    np.savez(path, **arrays)


def write_bernoulli_npz(path, **overrides):
    rng = trial_rng(0)
    inst = sample_bernoulli_matrix(200, 10, 0.5, rng)
    x_star = np.zeros(10)
    x_star[[2, 6]] = [4.0, 6.0]
    y = sample_poisson(inst.a @ x_star, rng).counts.astype(np.float64)
    arrays = {"a": inst.a, "q": np.float64(0.5), "y": y, "x_star": x_star}
    arrays.update(overrides)
    np.savez(path, **arrays)


MODEL_ARGS = {
    "convolution": ["--model", "convolution", "--p", "50", "--m", "10", "--seed", "3"],
    "bernoulli": ["--model", "bernoulli", "--p", "50", "--n", "2000", "--s", "3",
                  "--l1", "30", "--seed", "3"],
}


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(["solve", "--bogus"], capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, _, _ = run_cli(["--help"], capsys)
        assert code == 0

    def test_runtime_error_exits_two_with_typed_message(self, capsys):
        # n too small for the Bernoulli mass estimate's denominator
        code, _, err = run_cli(
            ["weights", "--model", "bernoulli", "--n", "10", "--p", "100", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: RegimeViolationError")


class TestSolve:
    def test_smoke_prints_one_line_per_estimator(self, capsys):
        code, out, _ = run_cli(
            [
                "solve", "--model", "convolution", "--p", "200", "--m", "20",
                "--s", "5", "--gamma", "4", "--weights", "nonconstant", "--seed", "1",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("estimator=ls_oracle weight_kind=none nmse=")
        assert lines[1].startswith("estimator=wlasso_two_step weight_kind=nonconstant")
        assert "kkt=" in lines[1]
        assert "converged=true" in lines[1]

    def test_nmse_divides_by_signal_mass_below_one(self, capsys):
        # run_trial's rule: over ||x*||_1 = 0.5, not over a floor of 1 (0.00191703834)
        argv = ["solve", "--p", "200", "--m", "40", "--s", "2", "--l1", "0.5", "--seed", "7"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out.startswith("estimator=ls_oracle weight_kind=none nmse=0.003834076679\n")

    def test_weight_list_adds_lines(self, capsys):
        code, out, _ = run_cli(
            ["solve", "--p", "60", "--m", "15", "--s", "3", "--seed", "2",
             "--weights", "constant,nonconstant"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("estimator=lasso_two_step weight_kind=constant")
        assert lines[2].startswith("estimator=wlasso_two_step weight_kind=nonconstant")

    def test_reads_instance_file(self, tmp_path, capsys):
        path = tmp_path / "inst.npz"
        write_convolution_npz(path)
        code, out, _ = run_cli(
            ["solve", "--instance", str(path), "--gamma", "4", "--seed", "0"], capsys
        )
        assert code == 0
        assert out.startswith("estimator=ls_oracle")

    def test_instance_without_y_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "no_y.npz"
        write_convolution_npz(path, with_y=False)
        code, _, err = run_cli(["solve", "--instance", str(path)], capsys)
        assert code == 1
        assert "needs 'y'" in err

    @pytest.mark.parametrize("weights, bad", [
        ("foo", "foo"), ("", ""), ("nonconstant,bogus", "bogus"),
    ])
    def test_unknown_weight_kind_is_usage_error(self, weights, bad, capsys):
        code, out, err = run_cli(
            ["solve", "--p", "100", "--m", "20", "--seed", "1", "--weights", weights], capsys
        )
        assert code == 1
        assert out == ""
        assert f"unknown weight kind {bad!r}" in err

    def test_unknown_weight_kind_rejected_before_any_work(self, monkeypatch, capsys):
        calls = []
        for name in ("oracle_least_squares", "weighted_lasso"):
            monkeypatch.setattr(wlasso.experiments, name, lambda *a, _n=name, **k: calls.append(_n))
        code, _, err = run_cli(["solve", "--weights", "nonconstant,bogus"], capsys)
        assert code == 1
        assert "unknown weight kind 'bogus'" in err
        assert calls == []

    def test_oracle_without_truth_rejected_before_any_solve(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(wlasso.experiments, "weighted_lasso", lambda *a, **k: calls.append(a))
        path = tmp_path / "no_truth.npz"
        write_convolution_npz(path, with_x_star=False)
        code, out, err = run_cli(
            ["solve", "--instance", str(path), "--weights", "nonconstant,oracle"], capsys
        )
        assert code == 1
        assert out == ""
        assert "oracle weights need x_star" in err
        assert calls == []

    def test_estimator_names_follow_estimator_kinds(self, capsys):
        code, out, _ = run_cli(
            ["solve", "--p", "60", "--m", "15", "--s", "3", "--seed", "2",
             "--weights", "oracle,constant"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].startswith("estimator=wlasso_two_step weight_kind=oracle")
        assert lines[2].startswith("estimator=lasso_two_step weight_kind=constant")

    def test_wide_dense_stops_at_ls_oracle(self, monkeypatch, capsys):
        # a dense refit reads the design's Gram, which the guard refuses
        monkeypatch.setattr(wlasso.model, "GRAM_MAX_P", 10)
        calls = []
        monkeypatch.setattr(wlasso.experiments, "weighted_lasso", lambda *a, **k: calls.append(a))
        code, out, err = run_cli(
            ["solve", "--model", "bernoulli", "--p", "12", "--n", "500", "--s", "2",
             "--l1", "20", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: MemoryGuardError") and "p = 12" in err
        assert calls == []

    def test_reads_bernoulli_instance_file(self, tmp_path, capsys):
        path = tmp_path / "bern.npz"
        write_bernoulli_npz(path)
        code, out, _ = run_cli(["solve", "--instance", str(path)], capsys)
        assert code == 0
        assert out.startswith("estimator=ls_oracle")

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_agrees_with_run_trial(self, model, seed, capsys):
        # one estimator rule: trial 0 of master seed k is the draw of --seed k
        kinds = ("constant", "nonconstant", "oracle")
        cfg = ExperimentConfig(model=model, p=300, s=5, target_l1=100.0, n=2000,
                               master_seed=seed, weight_kinds=kinds)
        point = TrialPoint(cfg, cfg.p, 40 if model == "convolution" else 0)
        argv = ["solve", "--model", model, "--p", "300", "--s", "5", "--l1", "100",
                "--m", "40", "--n", "2000", "--seed", str(seed), "--gamma", "4",
                "--weights", ",".join(kinds)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        fields = [dict(part.split("=") for part in line.split()) for line in out.splitlines()]
        got = {(f["estimator"], f["weight_kind"]): float(f["nmse"]) for f in fields}
        want = {(est, kind): v for (est, kind, _), v in run_trial(point, 0, (4.0,)).nmse.items()}
        assert len(got) == len(fields) == 4
        assert got == pytest.approx(want, rel=1e-9)


def test_cli_holds_no_estimator_rule():
    # the estimator rule (solve, detect, refit) lives in experiments.estimates
    # alone, so the command line cannot fork it
    tree = ast.parse(Path(wlasso.cli.__file__).read_text())
    names = {a.name.split(".")[-1] for n in ast.walk(tree)
             if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert names.isdisjoint({
        "weighted_lasso", "oracle_least_squares", "two_step", "detected_support", "SolverConfig",
    })


class TestInstanceValidation:
    """Malformed --instance files are usage errors naming the offending key."""

    @pytest.mark.parametrize("model, key, value", [
        ("convolution", "x_star", np.ones(29)),
        ("convolution", "y", -np.ones(30)),
        ("convolution", "y", np.ones((30, 1))),
        ("convolution", "y", np.full(30, np.nan)),
        ("convolution", "y", np.ones(31)),
        ("convolution", "counts", np.array([1, -1, 2])),
        ("bernoulli", "a", 3.7 * sample_bernoulli_matrix(200, 10, 0.5, trial_rng(0)).a),
        ("bernoulli", "q", np.float64(1.5)),
        ("bernoulli", "a", np.ones((1, 10))),
        ("bernoulli", "a", np.ones((200, 1))),
        ("bernoulli", "a", np.ones((200, 0))),
    ], ids=["x_star-length", "y-negative", "y-not-1d", "y-not-finite", "y-length",
            "counts-negative", "a-not-binary", "q-outside", "a-one-row", "a-one-column",
            "a-no-columns"])
    def test_malformed_file_is_usage_error(self, model, key, value, tmp_path, capsys):
        path = tmp_path / "bad.npz"
        if model == "convolution":
            rng = trial_rng(0)
            counts = sample_parents(30, 12, rng).counts
            arrays = {"counts": counts, "y": np.ones(30), "x_star": np.ones(30)}
            arrays[key] = value
            np.savez(path, **arrays)
        else:
            write_bernoulli_npz(path, **{key: value})
        code, _, err = run_cli(["solve", "--instance", str(path)], capsys)
        assert code == 1, err
        assert f"'{key}'" in err

    def test_file_without_design_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "no_design.npz"
        np.savez(path, y=np.ones(30), x_star=np.ones(30))
        code, out, err = run_cli(["solve", "--instance", str(path)], capsys)
        assert code == 1, err
        assert out == ""
        assert err == "error: instance file needs either 'counts' or 'a'\n"


BIG = str(10 ** 30)  # above numpy's largest array length


class TestInstanceFlags:
    """Out-of-range generation flags are usage errors naming the flag."""

    @pytest.mark.parametrize("argv, flag", [
        (["weights", "--model", "bernoulli", "--q", "1.5", "--p", "20", "--n", "500"], "--q"),
        (["weights", "--model", "bernoulli", "--n", "1", "--p", "20"], "--n"),
        (["weights", "--model", "bernoulli", "--p", "0", "--s", "0", "--l1", "0"], "--p"),
        (["weights", "--model", "bernoulli", "--p", "1", "--s", "1", "--n", "500"], "--p"),
        (["solve", "--p", "1"], "--s"),
        (["solve", "--p", "1", "--s", "1"], "--p"),
        (["solve", "--p", "50", "--m", "0"], "--m"),
        (["solve", "--p", "20", "--s", "30"], "--s"),
        (["solve", "--s", "0"], "--l1"),
        (["diagnose", "--l1", "-5"], "--l1"),
        (["diagnose", "--l1", "inf"], "--l1"),
        (["weights", "--model", "bernoulli", "--theta", "-1"], "--theta"),
        (["weights", "--theta", "0"], "--theta"),
        (["solve", "--gamma", "-1"], "--gamma"),
        (["solve", "--gamma", "nan"], "--gamma"),
        (["diagnose", "--gamma", "-1"], "--gamma"),
        (["weights", "--model", "bernoulli", "--c", "-5"], "--c"),
        (["solve", "--model", "bernoulli", "--weights", "constant", "--c", "-5"], "--c"),
        (["diagnose", "--model", "bernoulli", "--c", "nan"], "--c"),
        (["diagnose", "--kind", "oracle", "--theta", "-1"], "--theta"),
        (["solve", "--weights", "oracle", "--theta", "-1"], "--theta"),
        (["concentration-test", "--trials", "0"], "--trials"),
        (["concentration-test", "--intensity", "-1"], "--intensity"),
        (["concentration-test", "--intensity", "nan"], "--intensity"),
        (["concentration-test", "--n", "0"], "--n"),
        (["diagnose", "--rip-s", "0"], "--rip-s"),
        (["diagnose", "--rip-s", "300"], "--rip-s"),
        (["solve", "--seed", "-1"], "--seed"),
        (["concentration-test", "--seed", "-1"], "--seed"),
        (["experiment", "--seed", "-3", "--set", "m_grid=6"], "--seed"),
        (["solve", "--p", "50", "--m", BIG, "--s", "2"], "--m"),
        (["solve", "--model", "bernoulli", "--n", BIG, "--p", "50", "--s", "2"], "--n"),
        (["solve", "--p", BIG, "--m", "5", "--s", "2"], "--p"),
        (["solve", "--model", "bernoulli", "--n", "100", "--p", BIG, "--s", "2"], "--p"),
    ], ids=["q-outside", "n-small", "bernoulli-p-zero", "bernoulli-p-one", "s-above-p-1",
            "p-small", "m-zero",
            "s-above-p", "l1-without-s", "l1-negative", "l1-infinite", "theta-negative",
            "theta-zero", "gamma-negative", "gamma-nan", "diagnose-gamma-negative",
            "c-negative", "solve-c-negative", "c-nan", "diagnose-oracle-theta",
            "solve-oracle-theta", "trials-zero", "intensity-negative", "intensity-nan",
            "conc-n-zero", "rip-s-zero", "rip-s-above-p", "seed-negative",
            "conc-seed-negative", "experiment-seed-negative", "m-above-array-length",
            "n-above-array-length", "p-above-array-length", "bernoulli-p-above-array-length"])
    def test_out_of_range_flag_is_usage_error(self, argv, flag, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1, err
        assert out == ""
        assert err.startswith(f"error: {flag} ")

    def test_flags_of_the_other_model_are_not_read(self, capsys):
        code, _, err = run_cli(["weights", "--p", "20", "--q", "1.5", "--n", "0"], capsys)
        assert code == 0, err


class TestWeights:
    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    @pytest.mark.parametrize("kind", ["constant", "nonconstant", "oracle"])
    def test_every_model_and_kind(self, model, kind, capsys):
        code, out, err = run_cli(["weights", *MODEL_ARGS[model], "--kind", kind], capsys)
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0] == "index,weight"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(i) for i, _ in rows] == list(range(50))
        values = np.array([float(v) for _, v in rows])
        assert np.all(np.isfinite(values)) and np.all(values > 0)
        assert (np.unique(values).size == 1) == (kind == "constant")

    def test_csv_has_one_row_per_coordinate(self, capsys):
        code, out, _ = run_cli(["weights", "--p", "50", "--m", "10", "--seed", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,weight"
        assert len(lines) == 51
        index, value = lines[1].split(",")
        assert index == "0"
        assert float(value) > 0

    def test_oracle_kind_needs_truth(self, tmp_path, capsys):
        path = tmp_path / "no_truth.npz"
        write_convolution_npz(path, with_x_star=False)
        code, _, err = run_cli(
            ["weights", "--instance", str(path), "--kind", "oracle"], capsys
        )
        assert code == 1
        assert "x_star" in err

    def test_out_flag_writes_file_not_stdout(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        code, out, _ = run_cli(
            ["weights", "--p", "20", "--m", "5", "--seed", "1", "--out", str(path)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("index,weight")


class TestDiagnose:
    def test_report_contains_booleans_and_bounds(self, capsys):
        # the cone RE constant is valid here, so the screening condition is evaluated
        code, out, _ = run_cli(
            ["diagnose", "--p", "2000", "--m", "500", "--s", "1", "--l1", "50",
             "--seed", "3", "--gamma", "6", "--kind", "constant"],
            capsys,
        )
        assert code == 0
        assert "= true" in out or "= false" in out
        assert "gram_dev = " in out
        assert "weights_pass = " in out
        assert "support_lhs = " in out

    @pytest.mark.parametrize("gamma", ["1.5", "2"])
    def test_no_cone_constant_at_gamma_two_or_below(self, gamma, capsys):
        argv = ["diagnose", "--p", "60", "--m", "40", "--s", "2", "--seed", "2", "--gamma", gamma]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        for key in ("re_bound", "re_valid", "support_pass", "support_lhs", "support_rhs"):
            assert f"\n{key} =\n" in out

    def test_instance_without_truth_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "no_truth.npz"
        write_convolution_npz(path, with_x_star=False)
        code, out, err = run_cli(["diagnose", "--instance", str(path)], capsys)
        assert code == 1, err
        assert out == ""
        assert err == "error: diagnose needs x_star (generated instances have it)\n"


class TestConcentrationTest:
    def test_output_keys_in_order(self, capsys):
        code, out, _ = run_cli(
            ["concentration-test", "--n", "20", "--intensity", "1.5",
             "--theta", "3", "--trials", "200", "--seed", "5"],
            capsys,
        )
        assert code == 0
        keys = [line.split(" = ")[0] for line in out.strip().splitlines()]
        assert keys == [
            "n_trials",
            "theta",
            "bernstein_bound",
            "failure_rate_bernstein",
            "failure_rate_empirical",
            "failure_rate_envelope",
        ]


SWEEP_CFG = (
    "model = convolution\n"
    "p = 40\n"
    "s = 2\n"
    "m_grid = 6\n"
    "trials = 3\n"
    "tune_trials = 2\n"
    "gamma_grid = 2.5, 4\n"
    "target_l1 = 20\n"
    "master_seed = 9\n"
)
P_SWEEP_CFG = SWEEP_CFG.replace("m_grid = 6\n", "p_grid = 40, 60\n")
BERNOULLI_CFG = (
    "model = bernoulli\n"
    "p_grid = 10, 20\n"
    "n = 200\n"
    "s = 2\n"
    "trials = 3\n"
    "tune_trials = 2\n"
    "gamma_grid = 2.5, 4\n"
    "target_l1 = 20\n"
)


class TestExperiment:
    def test_rerun_is_byte_identical_and_dump_round_trips(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        out1, out2, out3 = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        dump = tmp_path / "effective.cfg"
        code, _, _ = run_cli(
            ["experiment", "--config", str(cfg), "--out", str(out1),
             "--dump-config", str(dump)],
            capsys,
        )
        assert code == 0
        code, _, _ = run_cli(["experiment", "--config", str(cfg), "--out", str(out2)], capsys)
        assert code == 0
        code, _, _ = run_cli(["experiment", "--config", str(dump), "--out", str(out3)], capsys)
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()

    def test_set_override_beats_file(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        dump = tmp_path / "effective.cfg"
        code, _, _ = run_cli(
            ["experiment", "--config", str(cfg), "--set", "master_seed=10",
             "--out", str(tmp_path / "x.csv"), "--dump-config", str(dump)],
            capsys,
        )
        assert code == 0
        assert "master_seed = 10\n" in dump.read_text()

    def test_seed_flag_beats_set_override(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        dump = tmp_path / "effective.cfg"
        code, _, _ = run_cli(
            ["experiment", "--config", str(cfg), "--set", "master_seed=10",
             "--seed", "11", "--out", str(tmp_path / "x.csv"),
             "--dump-config", str(dump)],
            capsys,
        )
        assert code == 0
        assert "master_seed = 11\n" in dump.read_text()

    def test_env_seed_used_only_without_explicit_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WLASSO_SEED", "77")
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("master_seed = 9\n", ""))
        dump = tmp_path / "effective.cfg"
        code, _, _ = run_cli(
            ["experiment", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
             "--dump-config", str(dump)],
            capsys,
        )
        assert code == 0
        assert "master_seed = 77\n" in dump.read_text()

    def test_config_seed_beats_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WLASSO_SEED", "77")
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        dump = tmp_path / "effective.cfg"
        code, _, _ = run_cli(
            ["experiment", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
             "--dump-config", str(dump)],
            capsys,
        )
        assert code == 0
        assert "master_seed = 9\n" in dump.read_text()

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\nm_grid = 4\n")
        code, _, err = run_cli(["experiment", "--config", str(cfg)], capsys)
        assert code == 1
        assert err.startswith("error:")
        assert "bogus" in err

    def test_both_grids_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "both.cfg"
        cfg.write_text(SWEEP_CFG + "p_grid = 40, 80\n")
        code, _, err = run_cli(["experiment", "--config", str(cfg)], capsys)
        assert code == 1
        assert "pick one sweep" in err

    def test_negative_threads_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        code, out, err = run_cli(
            ["experiment", "--config", str(cfg), "--threads", "-1"], capsys
        )
        assert code == 1
        assert out == ""
        assert "--threads" in err

    @pytest.mark.parametrize("cfg_text, overrides, key", [
        (SWEEP_CFG, ["s=-1"], "s"),
        (SWEEP_CFG, ["target_l1=-3"], "target_l1"),
        (SWEEP_CFG, ["p=1"], "p"),
        (SWEEP_CFG, ["allow_small_gamma=true", "gamma_grid=-1,4"], "gamma_grid"),
        (P_SWEEP_CFG, ["p_grid=3", "s=1"], "p_grid"),
        (P_SWEEP_CFG, ["m_coef=nan"], "m_coef"),
        (P_SWEEP_CFG, ["m_coef=inf"], "m_coef"),
        (P_SWEEP_CFG, ["m_coef=1e300", "trials=1", "tune_trials=1"], "m_coef"),
        (P_SWEEP_CFG, ["m_coef=1e308", "trials=1", "tune_trials=1"], "m_coef"),
        (BERNOULLI_CFG, ["q=1.5"], "q"),
        (BERNOULLI_CFG, ["weight_c=-5"], "weight_c"),
        (BERNOULLI_CFG, ["weight_c=inf"], "weight_c"),
        (BERNOULLI_CFG, ["p_grid=", "m_grid=10"], "m_grid"),
        (BERNOULLI_CFG, ["p_grid=1", "s=1"], "p_grid"),
        (SWEEP_CFG, ["master_seed=-3"], "master_seed"),
    ], ids=["s", "target_l1", "p", "gamma_grid",
            "p_grid-m-zero", "m_coef-nan", "m_coef-infinite", "m-above-array-length",
            "m-rule-infinite", "q", "weight_c-negative",
            "weight_c-infinite", "m_grid-bernoulli", "bernoulli-p_grid-one",
            "master_seed-negative"])
    def test_out_of_range_key_is_usage_error(self, cfg_text, overrides, key, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(cfg_text)
        argv = ["experiment", "--config", str(cfg)]
        for item in overrides:
            argv += ["--set", item]
        code, out, err = run_cli(argv, capsys)
        assert code == 1, err
        assert out == ""
        assert err.startswith((f"error: {key} ", f"error: {key}: ")), err

    @pytest.mark.parametrize("argv", [
        ["solve"],
        ["experiment", "--set", "m_grid=6"],
    ], ids=["solve", "experiment"])
    def test_negative_env_seed_is_usage_error(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("WLASSO_SEED", "-2")
        code, out, err = run_cli(argv, capsys)
        assert code == 1, err
        assert out == ""
        assert err.startswith("error: WLASSO_SEED "), err

    def test_missing_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(["experiment"], capsys)
        assert code == 1
        assert "m_grid or p_grid" in err
