"""The result record that run.py prints, end to end, on short runs."""
import json
import math
import shutil
import subprocess
import sys

from conftest import BENCH, ROOT


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def missing_of(proc):
    line = next(line for line in proc.stdout.splitlines() if line.startswith("missing "))
    return json.loads(line[len("missing "):])


def check_record(record, spec_metrics):
    """The contract's result object: every metric a finite number in its unit."""
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert isinstance(record["attempted"], int) and record["attempted"] >= 1
    assert isinstance(record["failed"], int) and record["failed"] == 0
    assert list(record["metrics"]) == [m["name"] for m in spec_metrics]
    for m in spec_metrics:
        entry = record["metrics"][m["name"]]
        assert entry == {"value": entry["value"], "unit": m["unit"]}
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"])


def test_end_to_end_record():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench("--workload", "conv_solve_p5000", "--seed", "3", "--seconds", "1",
                     "--trace", "0")
    record = result_of(proc)
    check_record(record, spec["end_to_end"])
    assert missing_of(proc) == []
    assert all(v["value"] > 0 for v in record["metrics"].values())
    assert any(line.startswith("env {") for line in proc.stdout.splitlines())


def test_traced_record_shows_the_split():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench("--workload", "bern_sweep_p", "--seconds", "1", "--trace", "1")
    record = result_of(proc)
    check_record(record, spec["per_layer"])
    # the pool's efficiency is measured on the pool workload only
    assert missing_of(proc) == ["experiments.pool.efficiency"]
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert metrics["experiments.pool.efficiency"] == 0
    assert metrics["model.cyclic_convolve.calls"] == 0
    assert metrics["model.cyclic_correlate.calls"] == 0
    assert metrics["bernoulli.max_pair_weight.calls"] > 0
    assert 0 < metrics["experiments.draw_reuse_ratio"] < 1
    assert metrics["fail_ratio"] == 0


def test_traced_pool_record():
    """The pool's workers trace into their own memory, so the layers come
    from the same units run serially; the efficiency compares the two."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench("--workload", "conv_sweep_m_pool", "--seconds", "1", "--trace", "1")
    record = result_of(proc)
    check_record(record, spec["per_layer"])
    assert missing_of(proc) == []
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert metrics["solver.weighted_lasso.calls"] > 0
    assert metrics["experiments.run_trial.calls"] > 0
    assert metrics["experiments.pool.efficiency"] > 0


def test_benchmark_does_not_load_numpy_random():
    """A pool worker imports numpy.random on its first draw, unless the
    process it was forked from had it; a sweep's parent never draws.  So the
    benchmark must not load it, or the pool workload measures a start-up the
    command line does not have."""
    code = "import sys, run, layers, workloads; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "conv_sweep_m", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_metric_reads_zero_and_is_named():
    import run
    import workloads

    spec = [{"name": "a.calls", "unit": "count"}, {"name": "b.busy_s", "unit": "s"},
            {"name": "c.ratio", "unit": "ratio"}]
    record, missing = run.result_record(
        spec, {"a.calls": 3.0, "b.busy_s": None, "c.ratio": float("nan")}, workloads.Verdict()
    )
    assert record["metrics"] == {"a.calls": {"value": 3.0, "unit": "count"},
                                 "b.busy_s": {"value": 0.0, "unit": "s"},
                                 "c.ratio": {"value": 0.0, "unit": "ratio"}}
    assert missing == ["b.busy_s", "c.ratio"]
    json.loads(json.dumps(record, allow_nan=False))
