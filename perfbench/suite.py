#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json and summarise the results.

    python3 perfbench/suite.py --out perfbench/out/suite.json

Each run is a separate `perfbench/run.py` process, called the way a
benchmark comparison calls it.  Every workload runs untraced on seeds 0-9,
then traced on seed 0; workloads are interleaved so a slow spell of the
machine does not fall on one workload.
For each end-to-end metric the summary gives the median over the runs and
the spread: the distance between the first and third quartile as a share of
the median, which must stay within the metric's bound.  Traced runs add the
per-layer metrics.  The record of every run is written to --out.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)
TRACED_SEEDS = range(1)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - started
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    raw = next(json.loads(line[4:]) for line in lines if line.startswith("raw "))
    missing = next(json.loads(line[8:]) for line in lines if line.startswith("missing "))
    return {"workload": workload, "seed": seed, "trace": trace, "elapsed_s": elapsed,
            "env": env, "raw": raw, "missing": missing, "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance over the median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def summarize(spec: dict, runs: list[dict]) -> dict:
    out = {}
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        mine = [r["result"] for r in untraced]
        summary = {"runs": len(mine), "failed": sum(r["failed"] for r in mine),
                   "attempted": sum(r["attempted"] for r in mine),
                   "correct": all(r["correct"] for r in mine), "metrics": {}}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in mine]
            if len(values) >= 2:
                median, share = spread(values)
                summary["metrics"][name] = {
                    "median": median, "spread": share, "bound": metric["bound"],
                    "unit": metric["unit"],
                }
                # the same metric before scaling by the host's speed
                raw = [r["raw"][name] for r in untraced if name in r["raw"]]
                if len(raw) == len(values):
                    raw_median, raw_share = spread(raw)
                    summary["metrics"][name].update(raw_median=raw_median, raw_spread=raw_share)
        factors = [r["raw"]["factor_median"] for r in untraced]
        if factors:
            summary["host_speed_factor"] = {"median": statistics.median(factors),
                                            "min": min(factors), "max": max(factors)}
        traced = [r for r in runs if r["workload"] == workload and r["trace"] == 1]
        if traced:
            summary["per_layer"] = {}
            for metric in spec["per_layer"]:
                name = metric["name"]
                values = [r["result"]["metrics"][name]["value"] for r in traced]
                # None marks a missing metric, which the result reports as 0
                missing = any(name in r["missing"] for r in traced)
                summary["per_layer"][name] = None if missing else statistics.median(values)
        out[workload] = summary
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="stored in the record")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    plan = [(name, seed, 0) for seed in SEEDS for name in names]
    plan += [(name, seed, 1) for seed in TRACED_SEEDS for name in names]
    runs = []
    for name, seed, trace in plan:
        run = run_once(name, seed, seconds, trace)
        runs.append(run)
        result = run["result"]
        shown = " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
            if trace == 0
        )
        print(f"{name} seed={seed} trace={trace} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)

    summary = summarize(spec, runs)
    for name, entry in summary.items():
        print(f"\n{name}: {entry['runs']} runs, correct={entry['correct']}, "
              f"failed {entry['failed']} of {entry['attempted']}")
        for metric, m in entry["metrics"].items():
            flag = "" if m["spread"] <= m["bound"] / 3 else "  <-- above a third of the bound"
            raw = f" (raw {m['raw_median']:.6g}, {m['raw_spread']:.3f})" if "raw_median" in m else ""
            print(f"  {metric:14s} median {m['median']:.6g} {m['unit']:6s} "
                  f"spread {m['spread']:.3f} bound {m['bound']}{raw}{flag}")
    if args.out:
        record = {"label": args.label, "run_seconds": seconds, "summary": summary, "runs": runs}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
