#!/usr/bin/env python3
"""Benchmark of the wlasso package: one workload per call.

    python3 perfbench/run.py --workload conv_sweep_m --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/`.  The run
sets the package up five times (fresh import plus one warm-up unit), then
repeats units of work until `--seconds` have passed.  With `--trace 0` it
reports the end-to-end metrics of BENCHMARK.json; with `--trace 1` it spends
half the time untraced and half traced, and reports the per-layer metrics.
The last line of standard output is the result as one JSON object, in which
every metric holds a number.  Lines before it: `raw` holds the unscaled
medians and the speed factors, `env` the versions and thread settings, and
`missing` the metrics that had no value and read 0.

End-to-end times of the serial workloads are in reference-speed seconds:
each unit's measured time is scaled by the host's speed, which a fixed
calibration kernel, run in a child process on the workload's CPU, measures
right before the unit.  The pool workload's times are raw.

    python3 perfbench/run.py --write-reference

regenerates the reference outputs in perfbench/reference/ from the current
code, for seeds 0-19.
"""
import os

# numpy reads these when it loads: one BLAS/OpenMP thread, so serial
# workloads use one core and the pool workload one core per worker.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
REFERENCE_SEEDS = range(20)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(workload, cpus) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus": cpus,
        "native_threads": {var: os.environ[var] for var in THREAD_VARS},
        "workers": workload.threads,
    }


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Calibrator:
    """The calibration kernel of calibrate.py, in a child process.

    `factor()` asks the child for the kernel's time now, on `cpu`, and
    returns the multiplier from a time measured now to reference-speed
    seconds.  The child is stopped, and waited for, when the `with` block
    ends.  With `cpu` None no child starts and every factor is 1: the pool
    workload's time does not follow the kernel's (see README.md).
    """

    REFERENCE_S = 0.004  # about the kernel's median time on the host of the baseline

    def __init__(self, cpu: int | None):
        self.cpu = cpu
        self.factors: list[float] = []
        self.child = None

    def __enter__(self) -> "Calibrator":
        if self.cpu is not None:
            self.child = subprocess.Popen(
                [sys.executable, str(HERE / "calibrate.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        return self

    def __exit__(self, *exc) -> None:
        if self.child is None:
            return
        self.child.stdin.close()
        try:
            self.child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.child.kill()
            self.child.wait()
        self.child.stdout.close()

    def factor(self) -> float:
        if self.child is None:
            self.factors.append(1.0)
            return 1.0
        self.child.stdin.write(f"{self.cpu}\n")
        self.child.stdin.flush()
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process ended early")
        self.factors.append(self.REFERENCE_S / float(line))
        return self.factors[-1]


def tail(latencies: list, cap: int) -> tuple:
    """The highest percentile up to `cap` with at least ten samples beyond it.

    With fewer than 20 samples no percentile qualifies; the median is then
    reported, since the maximum of a handful of samples is mostly noise.
    """
    n = len(latencies)
    for q in TAIL_PERCENTILES:
        if q <= cap and n * (1 - q / 100) >= 10:
            return f"p{q}", float(np.percentile(latencies, q))
    return "p50 (too few samples for a tail)", float(np.percentile(latencies, 50))


class Run:
    """One workload at one seed; every unit is calibrated and checked."""

    def __init__(self, workload, seed: int, calibrator: Calibrator):
        self.workload = workload
        self.seed = seed
        self.calibrator = calibrator
        self.tally = workloads.Verdict()
        self.first = None
        self.pkg = None

    def setup(self) -> list[tuple[float, float]]:
        """(seconds, host speed factor) of each set-up."""
        times = []
        for r in range(SETUP_REPEATS):
            factor = self.calibrator.factor()
            start = perf_counter()
            self.pkg = workloads.load_package()
            output = self.workload.run_unit(self.pkg, self.seed, workloads.WARMUP_UNIT + r)
            times.append((perf_counter() - start, factor))
            self._check(output)
        module = Path(self.pkg.cli.__file__).resolve()
        if SRC.resolve() not in module.parents:
            raise ImportError(f"wlasso was imported from {module}, not from {SRC}")
        return times

    def _check(self, output) -> None:
        self.tally.add(self.workload.check(self.pkg, output, self.seed, self.first))
        if self.first is None:
            self.first = output

    def units(self, seconds: float, first_unit: int, tracer=None, threads=None) -> list:
        """Repeat units until `seconds` have passed.

        Each record is (wall, cpu, latencies, host speed factor), times raw.
        """
        records = []
        unit = first_unit
        deadline = perf_counter() + seconds
        while not records or perf_counter() < deadline:
            factor = self.calibrator.factor()
            cpu0, start = cpu_seconds(), perf_counter()
            if tracer is not None:
                tracer.unit, tracer.recording = unit, True
            try:
                output = self.workload.run_unit(self.pkg, self.seed, unit, threads)
            finally:
                if tracer is not None:
                    tracer.recording = False
            records.append(
                (perf_counter() - start, cpu_seconds() - cpu0, output["latencies"], factor)
            )
            self._check(output)
            unit += 1
        return records


def scaled_wall(records) -> float:
    """Median wall time of a unit, in reference-speed seconds."""
    return statistics.median(r[0] * r[3] for r in records)


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict, list]:
    setup = run.setup()
    records = run.units(seconds, 0)
    wall = scaled_wall(records)
    latencies = [x * r[3] for r in records for x in r[2]]
    label, tail_value = tail(latencies, run.workload.tail_cap)
    metrics = {
        "setup_s": statistics.median(t * f for t, f in setup),
        "wall_s": wall,
        "cpu_s": statistics.median(r[1] * r[3] for r in records),
        "trials_per_s": run.workload.trials_per_unit / wall,
        "solve_ms_p50": 1000.0 * statistics.median(latencies),
        "solve_ms_tail": 1000.0 * tail_value,
        "peak_rss_mb": peak_rss_mb(),
    }
    raw_latencies = [x for r in records for x in r[2]]
    raw_wall = statistics.median(r[0] for r in records)
    raw_tail = tail(raw_latencies, run.workload.tail_cap)[1]
    raw = {
        "setup_s": statistics.median(t for t, _ in setup),
        "wall_s": raw_wall,
        "cpu_s": statistics.median(r[1] for r in records),
        "trials_per_s": run.workload.trials_per_unit / raw_wall,
        "solve_ms_p50": 1000.0 * statistics.median(raw_latencies),
        "solve_ms_tail": 1000.0 * raw_tail,
        "units": len(records),
        "setup_times_s": [t for t, _ in setup],
        "factor_median": statistics.median(run.calibrator.factors),
        "factor_min": min(run.calibrator.factors),
        "factor_max": max(run.calibrator.factors),
    }
    notes = [f"solve_ms_tail is the {label} of {len(latencies)} latency samples"]
    return metrics, raw, notes


def per_layer(run: Run, seconds: float, seed: int) -> tuple[dict, dict, list]:
    """Half the time untraced, half traced; the pool workload splits it in
    three, and traces its last third run serially, because the pool's
    workers record their spans in their own memory."""
    pool = run.workload.threads > 1
    share = seconds / (3 if pool else 2)
    run.setup()
    untraced = run.units(share, 0)
    tracer = layers.Tracer()
    with tracer:
        traced = run.units(share, len(untraced), tracer)
    layer_tracer, layer_units = tracer, len(traced)
    if pool:
        layer_tracer = layers.Tracer()
        with layer_tracer:
            layer_units = len(run.units(share, len(untraced) + len(traced), layer_tracer, threads=1))
    metrics = layers.layer_metrics(layer_tracer, layer_units)
    run_trial_busy = metrics["experiments.run_trial.busy_s"]
    metrics["experiments.pool.efficiency"] = (
        None if not pool or run_trial_busy is None
        else run_trial_busy / (run.workload.threads * statistics.median(r[0] for r in untraced))
    )
    metrics["trace.overhead_s"] = scaled_wall(traced) - scaled_wall(untraced)
    metrics["fail_ratio"] = run.tally.failed / max(run.tally.attempted, 1)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans_{run.workload.name}_seed{seed}.jsonl"
    layer_tracer.write(spans_path)
    raw = {"untraced_units": len(untraced), "traced_units": len(traced),
           "layer_units": layer_units, "spans": len(layer_tracer.spans)}
    notes = [f"{len(layer_tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"]
    if layer_tracer.missing:
        notes.append(f"missing layers: {sorted(layer_tracer.missing)}")
    return metrics, raw, notes


def result_record(spec_metrics: list, values: dict, tally) -> tuple[dict, list]:
    """The result object, and the names of the metrics that had no value.

    Every metric in the result holds a number: a missing one (a layer that
    was not found, or the pool's efficiency on a workload without a pool)
    reads 0 and is named in the second return value instead.
    """
    metrics, missing = {}, []
    for entry in spec_metrics:
        value = values[entry["name"]]
        if value is None or not math.isfinite(value):
            missing.append(entry["name"])
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    record = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return record, missing


def write_reference() -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    pkg = workloads.load_package()
    done = set()
    for workload in workloads.WORKLOADS.values():
        if isinstance(workload, workloads.Sweep):
            if workload.config in done:
                continue
            done.add(workload.config)
            table = {}
            for seed in REFERENCE_SEEDS:
                output = workload.run_unit(pkg, seed, 0, threads=1)
                if output["code"] != 0:
                    raise RuntimeError(output["stderr"])
                table[str(seed)] = output["csv"]
            path = workloads.REFERENCE_DIR / f"{Path(workload.config).stem}.json"
        else:
            table = {}
            for seed in REFERENCE_SEEDS:
                rows = []
                for index in range(workload.reference_instances):
                    inst = workload.instance(pkg, seed, index)
                    rows.append([
                        {"support": [int(k) for k in support],
                         "nmse": workload.nmse(refit, inst["x_star"])}
                        for _, _, support, refit in inst["solves"]
                    ])
                table[str(seed)] = rows
            path = workloads.REFERENCE_DIR / f"{workload.name}.json"
        lines = [f"{json.dumps(seed)}: {json.dumps(table[seed])}" for seed in sorted(table, key=int)]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "wlasso" / "__init__.py").is_file():
        print(f"error: no wlasso package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    spec = load_spec()
    workload = workloads.WORKLOADS[args.workload]
    # A serial workload runs pinned to one CPU, and the kernel is timed there.
    cpus = sorted(os.sched_getaffinity(0))
    if workload.threads == 1:
        cpus = cpus[:1]
        os.sched_setaffinity(0, cpus)
    started = perf_counter()
    try:
        with Calibrator(cpus[0] if workload.threads == 1 else None) as calibrator:
            run = Run(workload, args.seed, calibrator)
            if args.trace:
                values, raw, notes = per_layer(run, args.seconds, args.seed)
                spec_metrics = spec["per_layer"]
            else:
                values, raw, notes = end_to_end(run, args.seconds)
                spec_metrics = spec["end_to_end"]
    except ImportError as exc:
        print(f"error: cannot import wlasso: {exc}", file=sys.stderr)
        return 2
    record, missing = result_record(spec_metrics, values, run.tally)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{perf_counter() - started:.1f} s")
    for note in notes:
        print(note)
    for name, metric in record["metrics"].items():
        shown = "MISSING (reported as 0)" if name in missing else f"{metric['value']:.6g}"
        print(f"{name} = {shown} {metric['unit']}")
    print(f"fail_ratio = {run.tally.failed / max(run.tally.attempted, 1):.6g} "
          f"({run.tally.failed} of {run.tally.attempted} operations failed)")
    for problem in run.tally.problems[:20]:
        print(f"problem: {problem}")
    print("raw " + json.dumps(raw))
    print("env " + json.dumps(environment(workload, cpus), sort_keys=True))
    print("missing " + json.dumps(missing))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
