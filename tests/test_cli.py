"""Command-line dispatch: exit codes, output shapes, seeding, precedence."""

import ast
from pathlib import Path

import numpy as np
import pytest

import wlasso.cli
import wlasso.diagnostics
import wlasso.experiments
import wlasso.model
import wlasso.sensing
import wlasso.solver
from wlasso.bernoulli import sample_bernoulli_matrix
from wlasso.cli import main
from wlasso.convolution import sample_parents, sensing_operator
from wlasso.experiments import ExperimentConfig, TrialPoint, estimator_keys, key_gammas, run_trial
from wlasso.model import apply, sample_poisson, trial_rng
from wlasso.sensing import draw

from reference import count_products


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
    arrays.update(overrides)  # an override of None leaves its key out
    np.savez(path, **{key: value for key, value in arrays.items() if value is not None})


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

    def test_later_kind_starts_warm_with_the_same_nmse(self, capsys):
        # the second kind starts from the first kind's solution: a smaller first
        # working set, but the refit of the same detected support, so the same nmse
        fields = {}
        for order in ("constant,nonconstant", "nonconstant,constant"):
            argv = ["solve", "--p", "1000", "--m", "40", "--s", "5", "--gamma", "2.1",
                    "--seed", "7", "--weights", order]
            code, out, err = run_cli(argv, capsys)
            assert code == 0, err
            lines = [dict(part.split("=") for part in line.split()) for line in out.splitlines()]
            fields[order] = {line["weight_kind"]: line for line in lines}
        warm, cold = fields["constant,nonconstant"], fields["nonconstant,constant"]
        assert {k: v["nmse"] for k, v in warm.items()} == {k: v["nmse"] for k, v in cold.items()}
        assert int(warm["nonconstant"]["working_set"]) < int(cold["nonconstant"]["working_set"])

    @pytest.mark.parametrize("weights, kinds", [
        ("constant,constant", ["constant"]),
        ("nonconstant,constant,nonconstant", ["nonconstant", "constant"]),
    ])
    def test_repeated_kind_is_solved_once(self, weights, kinds, capsys):
        code, out, err = run_cli(
            ["solve", "--p", "200", "--m", "20", "--s", "5", "--weights", weights], capsys
        )
        assert code == 0, err
        got = [line.split()[1] for line in out.splitlines()]
        assert got == [f"weight_kind={kind}" for kind in ["none", *kinds]]

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
        # a dense refit reads the design's p x p Gram, which the size rule
        # refuses while it lets the 10 x 12 draw through
        monkeypatch.setattr(wlasso.model, "BYTE_BUDGET", 8 * 10 * 12)
        calls = []
        monkeypatch.setattr(wlasso.experiments, "weighted_lasso", lambda *a, **k: calls.append(a))
        code, out, err = run_cli(
            ["solve", "--model", "bernoulli", "--p", "12", "--n", "10", "--s", "2",
             "--l1", "20", "--weights", "oracle", "--seed", "1"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --p ") and err.endswith(", got 12\n")
        assert calls == []

    def test_reads_bernoulli_instance_file(self, tmp_path, capsys):
        path = tmp_path / "bern.npz"
        write_bernoulli_npz(path)
        code, out, _ = run_cli(["solve", "--instance", str(path)], capsys)
        assert code == 0
        assert out.startswith("estimator=ls_oracle")

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    def test_instance_file_solves_as_its_draw(self, model, tmp_path, capsys):
        # the file holds the draw's arrays alone, so the p, m, n and column
        # sums read off them must be the drawn ones for every line to match
        sizes = {"p": 50, "s": 5, "l1": 100.0, "m": 10, "n": 2000, "q": 0.5}
        if model == "bernoulli":
            sizes.update(s=3, l1=30.0)
        kinds = ["--weights", "constant,nonconstant,oracle"]
        argv = ["solve", "--model", model, "--seed", "3", *kinds]
        code, want, err = run_cli(argv + [f"--{k}={v}" for k, v in sizes.items()], capsys)
        assert code == 0, err
        inst, y, x_star = draw(model, sizes["p"], sizes["s"], sizes["l1"], trial_rng(3),
                               m=sizes["m"], n=sizes["n"], q=sizes["q"])
        design = {"counts": inst.counts} if model == "convolution" else {"a": inst.a, "q": inst.q}
        path = tmp_path / "draw.npz"
        np.savez(path, **design, y=y, x_star=x_star)
        code, got, err = run_cli(["solve", "--instance", str(path), *kinds], capsys)
        assert code == 0, err
        assert len(want.splitlines()) == 4
        assert got == want

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_agrees_with_run_trial(self, model, seed, capsys):
        # one estimator rule: trial 0 of master seed k is the draw of --seed k
        kinds = ("constant", "nonconstant", "oracle")
        cfg = ExperimentConfig(model=model, p=300, s=5, target_l1=100.0, n=2000,
                               master_seed=seed, weight_kinds=kinds, gamma_grid=(4.0,))
        point = TrialPoint(cfg, cfg.p, 40 if model == "convolution" else 0)
        cells = [key + key_gammas(cfg, key) for key in estimator_keys(cfg)]
        argv = ["solve", "--model", model, "--p", "300", "--s", "5", "--l1", "100",
                "--m", "40", "--n", "2000", "--seed", str(seed), "--gamma", "4",
                "--weights", ",".join(kinds)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        fields = [dict(part.split("=") for part in line.split()) for line in out.splitlines()]
        got = {(f["estimator"], f["weight_kind"]): float(f["nmse"]) for f in fields}
        want = {(est, kind): v for (est, kind, _), v in run_trial(point, 0, cells).nmse.items()}
        assert len(got) == len(fields) == 4
        assert got == pytest.approx(want, rel=1e-9)


def _names(tree) -> set[str]:
    """Every name a module's syntax tree imports or reads."""
    names = {a.name.split(".")[-1] for n in ast.walk(tree)
             if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return names


def _tree(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text())


def test_cli_holds_no_estimator_rule():
    # the estimator rule (solve, detect, refit) lives in experiments.estimates
    # alone, so the command line cannot fork it
    assert _names(_tree(wlasso.cli)).isdisjoint({
        "weighted_lasso", "oracle_least_squares", "two_step", "detected_support", "SolverConfig",
    })


def test_cli_knows_no_sensing_model():
    # an --instance file becomes an instance in sensing.from_arrays, so the
    # command line imports neither model module and builds no instance itself
    tree = _tree(wlasso.cli)
    modules = {(n.module or "").split(".")[-1] for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom)}
    assert (_names(tree) | modules).isdisjoint({
        "bernoulli", "convolution", "ConvolutionInstance", "BernoulliInstance",
    })


def test_solver_names_no_weight_kind():
    # a weight vector is its values; the kinds live in sensing, so a new kind
    # needs no edit in the solver
    tree = _tree(wlasso.solver)
    kinds = set(wlasso.sensing.WEIGHT_KINDS)
    assert "WEIGHT_KINDS" not in _names(tree)
    assert not [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and n.value in kinds]


def test_weights_of_every_kind_come_from_sensing():
    # sensing.weights builds every kind, the oracle from the score at the
    # truth that its caller computes once: neither sensing nor diagnostics
    # computes that score, and run_trial holds no oracle branch of its own
    for module in (wlasso.sensing, wlasso.diagnostics):
        assert "score" not in _names(_tree(module))
    tree = _tree(wlasso.experiments)
    assert "oracle_weights" not in _names(tree)
    table = next(n for n in tree.body if isinstance(n, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "ESTIMATOR_KINDS" for t in n.targets))
    in_table = {id(n) for n in ast.walk(table)}
    oracles = [n for n in ast.walk(tree) if isinstance(n, ast.Constant) and n.value == "oracle"]
    assert oracles and all(id(n) in in_table for n in oracles)


def test_one_size_rule():
    # only model.check_size compares a size to the byte budget, and the
    # rules it replaced are gone
    src = Path(wlasso.model.__file__).parent
    compares = {
        (path.name, fn.name)
        for path in sorted(src.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, ast.Compare)
        if "BYTE_BUDGET" in _names(node)
    }
    assert compares == {("model.py", "check_size")}
    for path in src.glob("*.py"):
        text = path.read_text()
        for gone in ("MAX_LENGTH", "GRAM_MAX_P", "MemoryGuardError", "check_length"):
            assert gone not in text, (path.name, gone)


def test_only_cyclic_convolve_asks_for_an_exact_product():
    # an operator's product is sign-exact whenever its operands are both
    # nonnegative, which it reads off them; no caller asks for it
    src = Path(wlasso.model.__file__).parent
    takes_exact = {
        (path.name, fn.name)
        for path in sorted(src.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in ast.walk(fn.args) if isinstance(arg, ast.arg) and arg.arg == "exact"
    }
    assert takes_exact == {("model.py", "cyclic_convolve")}


class TestProducts:
    """An instance command applies the design once, for the intensity, and its
    adjoint at most once, for aty: the score at the truth and every solve
    read Gram rows."""

    def test_diagnose_oracle_applies_once_and_adjoint_once(self, monkeypatch, capsys):
        # the intensity, then aty, which the score at the truth reads
        calls = count_products(monkeypatch)
        code, _, err = run_cli(["diagnose", "--kind", "oracle", "--seed", "1"], capsys)
        assert code == 0, err
        assert calls == {"apply": 1, "adjoint": 1}

    @pytest.mark.parametrize("model", ["convolution", "bernoulli"])
    @pytest.mark.parametrize("command", ["solve", "weights", "diagnose"])
    @pytest.mark.parametrize("kind", ["constant", "nonconstant", "oracle"])
    def test_at_most_one_product_each(self, command, kind, model, monkeypatch, capsys):
        flag = "--weights" if command == "solve" else "--kind"
        calls = count_products(monkeypatch)
        code, _, err = run_cli([command, flag, kind, *MODEL_ARGS[model]], capsys)
        assert code == 0, err
        assert calls["apply"] <= 1 and calls["adjoint"] <= 1, calls


class TestInstanceValidation:
    """Malformed --instance files are usage errors naming the offending key;
    a key the file leaves out is named as the flag that stands in for it."""

    @pytest.mark.parametrize("model, key, value, argv, budget", [
        ("convolution", "x_star", np.ones(29), [], None),
        ("convolution", "y", -np.ones(30), [], None),
        ("convolution", "y", np.ones((30, 1)), [], None),
        ("convolution", "y", np.full(30, np.nan), [], None),
        ("convolution", "y", np.ones(31), [], None),
        ("convolution", "counts", np.array([1, -1, 2]), [], None),
        ("bernoulli", "a", 3.7 * sample_bernoulli_matrix(200, 10, 0.5, trial_rng(0)).a, [], None),
        ("bernoulli", "q", np.float64(1.5), [], None),
        ("bernoulli", "a", np.ones((1, 10)), [], None),
        ("bernoulli", "a", np.ones((200, 1)), [], None),
        ("bernoulli", "a", np.ones((200, 0)), [], None),
        ("convolution", "counts", np.array([12] + [0] * 29), [], 8 * 11),
        ("bernoulli", "a", sample_bernoulli_matrix(200, 10, 0.5, trial_rng(0)).a, [], 8 * 1999),
        ("bernoulli", "q", None, ["--q", "2"], None),
        ("convolution", "counts", np.array([1.5, 1.5] + [0] * 28), [], None),
        ("convolution", "counts", np.array([12] + [0] * 29, dtype=object), [], None),
        ("bernoulli", "q", np.array(None, dtype=object), [], None),
    ], ids=["x_star-length", "y-negative", "y-not-1d", "y-not-finite", "y-length",
            "counts-negative", "a-not-binary", "q-outside", "a-one-row", "a-one-column",
            "a-no-columns", "counts-over-budget", "a-over-budget", "q-flag-outside",
            "counts-fractional", "counts-object", "q-object"])
    def test_malformed_file_is_usage_error(
        self, model, key, value, argv, budget, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "bad.npz"
        if model == "convolution":
            rng = trial_rng(0)
            counts = sample_parents(30, 12, rng).counts
            arrays = {"counts": counts, "y": np.ones(30), "x_star": np.ones(30)}
            arrays[key] = value
            np.savez(path, **arrays)
        else:
            write_bernoulli_npz(path, **{key: value})
        if budget is not None:  # the size rule, without allocating past it
            monkeypatch.setattr(wlasso.model, "BYTE_BUDGET", budget)
        code, _, err = run_cli(["solve", "--instance", str(path), *argv], capsys)
        assert code == 1, err
        assert (f"'{key}'" if value is not None else f"error: --{key} ") in err

    def test_file_without_design_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "no_design.npz"
        np.savez(path, y=np.ones(30), x_star=np.ones(30))
        code, out, err = run_cli(["solve", "--instance", str(path)], capsys)
        assert code == 1, err
        assert out == ""
        assert err == "error: instance file needs either 'counts' or 'a'\n"


BIG = str(10 ** 30)  # above numpy's largest array length
HUGE = str(10 ** 18)  # below it, but 7 EiB of parents


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
        (["solve", "--p", "50", "--m", HUGE, "--s", "2"], "--m"),
        (["concentration-test", "--n", "100000000000000"], "--n"),
    ], ids=["q-outside", "n-small", "bernoulli-p-zero", "bernoulli-p-one", "s-above-p-1",
            "p-small", "m-zero",
            "s-above-p", "l1-without-s", "l1-negative", "l1-infinite", "theta-negative",
            "theta-zero", "gamma-negative", "gamma-nan", "diagnose-gamma-negative",
            "c-negative", "solve-c-negative", "c-nan", "diagnose-oracle-theta",
            "solve-oracle-theta", "trials-zero", "intensity-negative", "intensity-nan",
            "conc-n-zero", "rip-s-zero", "rip-s-above-p", "seed-negative",
            "conc-seed-negative", "experiment-seed-negative", "m-above-array-length",
            "n-above-array-length", "p-above-array-length", "bernoulli-p-above-array-length",
            "m-over-budget", "conc-n-over-budget"])
    def test_out_of_range_flag_is_usage_error(self, argv, flag, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1, err
        assert out == ""
        assert err.startswith(f"error: {flag} ")

    def test_bernoulli_draw_over_budget_names_n(self, monkeypatch, capsys):
        # neither n nor p is over the budget alone; their n x p draw is
        monkeypatch.setattr(wlasso.model, "BYTE_BUDGET", 8 * 100 * 20)
        argv = ["weights", "--model", "bernoulli", "--p", "20", "--s", "2", "--l1", "20"]
        assert run_cli(argv + ["--n", "100"], capsys)[0] == 0
        code, out, err = run_cli(argv + ["--n", "101"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: --n ") and err.endswith(", got 101\n")

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

    @pytest.mark.parametrize("kind", ["constant", "nonconstant"])
    def test_boolean_design_file_reads_as_its_float_copy(self, kind, tmp_path, capsys):
        outputs = []
        for dtype in (bool, np.float64):
            path = tmp_path / f"bern_{np.dtype(dtype).name}.npz"
            rng = trial_rng(4)
            a = rng.random((300, 20)) < 0.5
            y = sample_poisson(6.0 * a[:, 3], rng).counts.astype(np.float64)
            np.savez(path, a=a.astype(dtype), q=np.float64(0.5), y=y)
            argv = ["weights", "--model", "bernoulli", "--instance", str(path), "--kind", kind]
            code, out, err = run_cli(argv, capsys)
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 21

    WIDE = ["weights", "--model", "bernoulli", "--p", "400", "--n", "200", "--s", "3",
            "--l1", "30", "--seed", "1"]

    def test_wide_design_weighs_without_its_gram(self, monkeypatch, capsys):
        # only the oracle kind reads the pair, whose score at the truth needs
        # the p x p Gram; the size rule lets the 200 x 400 draw through, not it
        monkeypatch.setattr(wlasso.model, "BYTE_BUDGET", 8 * 200 * 400)
        code, out, err = run_cli(self.WIDE + ["--kind", "nonconstant"], capsys)
        assert code == 0, err
        assert len(out.splitlines()) == 401

    def test_wide_design_oracle_names_p(self, monkeypatch, capsys):
        # as solve and diagnose do on a design whose Gram is over the size rule
        monkeypatch.setattr(wlasso.model, "BYTE_BUDGET", 8 * 200 * 400)
        code, out, err = run_cli(self.WIDE + ["--kind", "oracle"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: --p ") and err.endswith(", got 400\n")

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
        (SWEEP_CFG, ["estimators="], "estimators"),
        (SWEEP_CFG, ["m_grid=" + HUGE], "m_grid"),
    ], ids=["s", "target_l1", "p", "gamma_grid",
            "p_grid-m-zero", "m_coef-nan", "m_coef-infinite", "m-above-array-length",
            "m-rule-infinite", "q", "weight_c-negative",
            "weight_c-infinite", "m_grid-bernoulli", "bernoulli-p_grid-one",
            "master_seed-negative", "estimators-empty", "m_grid-over-budget"])
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

    def test_bernoulli_gram_over_budget_names_p_grid(self, monkeypatch, tmp_path, capsys):
        # a trial's score at the truth and its solves read the p x p Gram, which
        # the size rule refuses while it lets the 200 x 300 draw through: the
        # key is named before any trial runs, not failed in every trial
        monkeypatch.setattr(wlasso.model, "BYTE_BUDGET", 8 * 200 * 300)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(BERNOULLI_CFG)
        argv = ["experiment", "--config", str(cfg), "--set", "p_grid=300", "--threads", "1"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: p_grid: p ") and err.endswith(", got 300\n"), err

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

    def test_missing_grid_writes_no_dump(self, tmp_path, capsys):
        dump = tmp_path / "d.cfg"
        code, out, err = run_cli(
            ["experiment", "--set", "trials=1", "--dump-config", str(dump)], capsys
        )
        assert code == 1
        assert out == ""
        assert err == "error: config needs m_grid or p_grid\n"
        assert not dump.exists()
