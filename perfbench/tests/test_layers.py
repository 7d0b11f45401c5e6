"""Trace wrappers: installed at every alias, signature-agnostic, restored."""
import sys

import pytest

import layers
import workloads


@pytest.fixture()
def pkg():
    return workloads.load_package()


def test_never_wraps_per_coordinate_functions():
    assert not layers.NEVER_WRAP & set(layers.TARGETS)


def test_every_patched_attribute_is_restored(pkg):
    originals = {
        name: getattr(sys.modules[module], attr)
        for name, (module, attr) in layers.TARGETS.items()
    }
    tracer = layers.Tracer()
    with tracer:
        patched = tracer.patched
        assert patched and not tracer.missing
        for holder, alias, original in patched:
            assert getattr(holder, alias) is not original
        assert sys.modules["wlasso.solver"].soft_threshold.__module__ == "wlasso.solver"
        assert not hasattr(sys.modules["wlasso.solver"].soft_threshold, "__wrapped__")
    for holder, alias, original in patched:
        assert getattr(holder, alias) is original
    for name, (module, attr) in layers.TARGETS.items():
        assert getattr(sys.modules[module], attr) is originals[name]


def test_patches_every_alias(pkg):
    solver, model = sys.modules["wlasso.solver"], sys.modules["wlasso.model"]
    experiments = sys.modules["wlasso.experiments"]
    with layers.Tracer() as tracer:
        aliases = {(h.__name__, a) for h, a, _ in tracer.patched}
        assert solver.cyclic_convolve is model.cyclic_convolve
        assert hasattr(solver.cyclic_convolve, "__wrapped__")
    assert {("wlasso.model", "cyclic_convolve"), ("wlasso.solver", "cyclic_convolve"),
            ("wlasso.experiments", "weighted_lasso"), ("wlasso.solver", "weighted_lasso"),
            ("wlasso.cli", "run_mse_vs_m"), ("wlasso.experiments", "run_mse_vs_m")} <= aliases
    assert not hasattr(experiments.weighted_lasso, "__wrapped__")


def test_missing_target_is_a_missing_layer(pkg, monkeypatch):
    monkeypatch.setitem(layers.TARGETS, "model.gone", ("wlasso.model", "gone"))
    monkeypatch.setitem(layers.TARGETS, "solver.weighted_lasso", ("wlasso.solver", "renamed"))
    tracer = layers.Tracer()
    with tracer:
        tracer.recording = True
        workloads.WORKLOADS["conv_solve_p5000"].instance(pkg, 0, 0)
        tracer.recording = False
    assert tracer.missing == {"model.gone", "solver.weighted_lasso"}
    metrics = layers.layer_metrics(tracer, 1)
    assert metrics["model.gone.calls"] is None
    assert metrics["solver.weighted_lasso.busy_s"] is None and metrics["solver.sweeps"] is None
    assert metrics["model.cyclic_convolve.calls"] > 0


def test_signature_change_still_traces(pkg, monkeypatch):
    experiments = sys.modules["wlasso.experiments"]

    def run_trial(point, index, gammas, *, extra=None):
        return len(gammas)

    monkeypatch.setattr(experiments, "run_trial", run_trial)
    tracer = layers.Tracer()
    with tracer:
        tracer.recording = True
        assert experiments.run_trial("p", 1, gammas=(2.1, 3.0)) == 2
        assert experiments.run_trial("p", 1, (2.1,)) == 1
        assert experiments.run_trial(point="p", index=2, gammas=()) == 0
    assert experiments.run_trial is run_trial
    metrics = layers.layer_metrics(tracer, 1)
    assert metrics["experiments.run_trial.calls"] == 3
    assert metrics["experiments.draw_reuse_ratio"] == pytest.approx(2 / 3)


def test_tracing_does_not_change_results(pkg):
    solve = workloads.WORKLOADS["conv_solve_p5000"]
    plain = solve.instance(pkg, 5, 7)
    with layers.Tracer() as tracer:
        tracer.recording = True
        traced = solve.instance(pkg, 5, 7)
    for (_, a, _, ra), (_, b, _, rb) in zip(plain["solves"], traced["solves"]):
        assert (a.x_hat == b.x_hat).all() and (ra == rb).all()
    assert tracer.spans


def test_self_time_subtracts_children():
    spans = [
        ("outer", 0.0, 10.0, -1, 0, {}),
        ("inner", 1.0, 3.0, 0, 0, {}),
        ("inner", 4.0, 8.0, 0, 0, {}),
        ("leaf", 5.0, 6.0, 2, 0, {}),
    ]
    summary = layers.summarize(spans)
    assert summary["outer"] == {"calls": 1, "busy_s": 10.0, "self_s": 4.0}
    assert summary["inner"] == {"calls": 2, "busy_s": 6.0, "self_s": 5.0}
    assert summary["leaf"]["self_s"] == 1.0
