"""Schema of BENCHMARK.json and of the prediction table; names are fixed."""
import json
import re

from conftest import BENCH, ROOT

import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

WORKLOADS = {"conv_sweep_m", "conv_solve_p5000", "bern_sweep_p", "conv_sweep_m_pool"}
END_TO_END = {
    "setup_s", "wall_s", "cpu_s", "trials_per_s", "solve_ms_p50", "solve_ms_tail",
    "peak_rss_mb",
}
PER_LAYER = {
    *(f"model.{f}.{k}" for f in ("cyclic_convolve", "cyclic_correlate") for k in ("calls", "busy_s")),
    "model.sample_poisson.busy_s",
    *(f"convolution.{f}.{k}"
      for f in ("sample_parents", "surrogate_convolution", "constant_weights", "nonconstant_weights")
      for k in ("calls", "busy_s")),
    *(f"bernoulli.{f}.{k}"
      for f in ("sample_bernoulli_matrix", "surrogate_bernoulli", "constant_weights",
                "nonconstant_weights", "max_pair_weight")
      for k in ("calls", "busy_s")),
    "solver.weighted_lasso.calls", "solver.weighted_lasso.busy_s", "solver.weighted_lasso.self_s",
    "solver.sweeps", "solver.ms_per_sweep", "solver.nonconverged", "solver.kkt_max",
    *(f"solver.{f}.{k}" for f in ("two_step", "oracle_least_squares") for k in ("calls", "busy_s")),
    "diagnostics.weights_cover.calls", "diagnostics.weights_cover.busy_s",
    "experiments.run_trial.calls", "experiments.run_trial.busy_s",
    "experiments.draw_reuse_ratio", "experiments.tune_gamma.busy_s", "experiments.self_s",
    "experiments.pool.efficiency", "cli.self_s", "trace.overhead_s", "fail_ratio",
}


def load(name):
    return json.loads((BENCH / name if name != "BENCHMARK.json" else ROOT / name).read_text())


def test_top_level_schema():
    spec = load("BENCHMARK.json")
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    runs = 4 + 22 * len(spec["workloads"])
    # a run measured run_seconds plus 4-16 s of start-up, set-up and its last
    # unit; the pool workload's runs took longest, about 36 s
    assert runs * (spec["run_seconds"] + 16) < 3420


def test_names_are_exactly_the_specified_ones():
    spec = load("BENCHMARK.json")
    assert {w["name"] for w in spec["workloads"]} == WORKLOADS
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"] for m in spec["per_layer"]} == PER_LAYER
    assert set(workloads.WORKLOADS) == WORKLOADS
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


def test_entries():
    spec = load("BENCHMARK.json")
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_prediction_table_covers_every_layer_metric_once():
    spec = load("BENCHMARK.json")
    rows = load("predictions.json")["rows"]
    listed = [name for row in rows for name in row["layer_metrics"]]
    assert sorted(listed) == sorted(PER_LAYER)
    for row in rows:
        assert set(row["end_to_end"]) <= END_TO_END
        for key in ("moves_on", "little_on", "unchanged_on"):
            assert set(row[key]) <= WORKLOADS
        assert not set(row["moves_on"]) & set(row["unchanged_on"])
    assert spec["per_layer"]
