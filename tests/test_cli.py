"""Command-line dispatch: exit codes, output shapes, seeding, precedence."""

import numpy as np
import pytest

from wlasso.bernoulli import sample_bernoulli_matrix
from wlasso.cli import main
from wlasso.convolution import sample_parents, sensing_operator
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

    def test_reads_bernoulli_instance_file(self, tmp_path, capsys):
        path = tmp_path / "bern.npz"
        write_bernoulli_npz(path)
        code, out, _ = run_cli(["solve", "--instance", str(path)], capsys)
        assert code == 0
        assert out.startswith("estimator=ls_oracle")


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
    ], ids=["x_star-length", "y-negative", "y-not-1d", "y-not-finite", "y-length",
            "counts-negative", "a-not-binary", "q-outside"])
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
        code, out, _ = run_cli(
            ["diagnose", "--p", "60", "--m", "40", "--s", "2", "--seed", "2"], capsys
        )
        assert code == 0
        assert "= true" in out or "= false" in out
        assert "gram_dev = " in out
        assert "weights_pass = " in out
        assert "support_lhs = " in out


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

    def test_missing_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(["experiment"], capsys)
        assert code == 1
        assert "m_grid or p_grid" in err
