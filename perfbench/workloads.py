"""The benchmark's workloads: one unit of work each, and the check of its output.

A sweep unit is one `wlasso experiment` call through `wlasso.cli.main`, and
every repetition in a run replays the same seeded sweep.  A solve unit is a
block of independent p = 5000 instances built with the library API; block j
holds instances j*BLOCK .. j*BLOCK + BLOCK - 1, so every block is new work.
Checks run after the unit, outside its timing.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import sys
import types
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE / "configs"
REFERENCE_DIR = HERE / "reference"

# Relative tolerance on reference floats: a different draw moves them by
# orders more, FFT or summation-order round-off by orders less.
REL_TOL = 1e-6

SWEEP_HEADER = (
    "model,p,s,m,n,q,estimator,weight_kind,gamma_star,trials,failures,"
    "nmse_mean,nmse_stderr,coverage_rate,seed"
)
ESTIMATOR_ROWS = (
    ("ls_oracle", "none"),
    ("lasso_two_step", "constant"),
    ("wlasso_two_step", "nonconstant"),
)
# Set-up and warm-up work uses unit indices far from the measured ones.
WARMUP_UNIT = 1 << 16


def load_package():
    """Import wlasso afresh, as a new process would; part of set-up time."""
    for name in [n for n in sys.modules if n == "wlasso" or n.startswith("wlasso.")]:
        del sys.modules[name]
    names = ("cli", "model", "convolution", "solver")
    modules = {name: importlib.import_module(f"wlasso.{name}") for name in names}
    return types.SimpleNamespace(**modules)


@dataclass
class Verdict:
    """Operations attempted and failed in one unit, with the reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def read_config(path: Path) -> dict:
    settings = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            settings[key.strip()] = value.strip()
    return settings


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + 1e-12


def _float_cell(text: str):
    return None if text == "" else float(text)


@dataclass(frozen=True)
class Sweep:
    name: str
    config: str
    threads: int
    # Too few sweeps fit in a run for a percentile above the median with ten
    # samples beyond it, so the tail of a sweep workload is its median.
    tail_cap: int = 50

    @cached_property
    def settings(self) -> dict:
        return read_config(CONFIG_DIR / self.config)

    @cached_property
    def reference(self) -> dict:
        path = REFERENCE_DIR / f"{Path(self.config).stem}.json"
        return json.loads(path.read_text()) if path.exists() else {}

    def argv(self, seed: int, threads: int | None = None) -> list[str]:
        return [
            "experiment",
            "--config", str(CONFIG_DIR / self.config),
            "--seed", str(seed),
            "--threads", str(self.threads if threads is None else threads),
        ]

    def points(self) -> list[tuple[str, int, int | None]]:
        cfg = self.settings
        if "m_grid" in cfg:
            return [("convolution", int(cfg["p"]), int(m)) for m in cfg["m_grid"].split(",")]
        return [(cfg["model"], int(p), None) for p in cfg["p_grid"].split(",")]

    @property
    def trials_per_unit(self) -> int:
        cfg = self.settings
        return (int(cfg["trials"]) + int(cfg["tune_trials"])) * len(self.points())

    def run_unit(self, pkg, seed: int, unit: int, threads: int | None = None):
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(self.argv(seed, threads))
        latency = perf_counter() - start
        return {"code": code, "csv": out.getvalue(), "stderr": err.getvalue(),
                "latencies": [latency]}

    def expected_keys(self, seed: int) -> list[tuple]:
        cfg = self.settings
        keys = []
        for model, p, m in self.points():
            n = p if model == "convolution" else int(cfg["n"])
            q = None if model == "convolution" else float(cfg["q"])
            for est, kind in ESTIMATOR_ROWS:
                keys.append((model, p, int(cfg["s"]), m, n, q, est, kind,
                             int(cfg["trials"]), seed))
        return keys

    def check(self, pkg, output: dict, seed: int, previous: dict | None = None) -> Verdict:
        """Each (row, trial) is one operation; a row that fails the check fails
        all its trials, otherwise the CSV `failures` column counts."""
        keys = self.expected_keys(seed)
        trials = int(self.settings["trials"])
        verdict = Verdict(attempted=trials * len(keys))
        lines = output["csv"].splitlines()
        if output["code"] != 0 or not lines or lines[0] != SWEEP_HEADER:
            verdict.failed = verdict.attempted
            verdict.problems.append(
                f"exit code {output['code']}, header {lines[:1]}: {output['stderr'].strip()}"
            )
            return verdict
        rows = [line.split(",") for line in lines[1:]]
        ref_text = self.reference.get(str(seed))
        ref_rows = None if ref_text is None else [
            line.split(",") for line in ref_text.splitlines()[1:]
        ]
        prev_rows = None if previous is None else [
            line.split(",") for line in previous["csv"].splitlines()[1:]
        ]
        if len(rows) != len(keys):
            verdict.problems.append(f"{len(rows)} rows, expected {len(keys)}")
        gammas = [float(g) for g in self.settings["gamma_grid"].split(",")]
        for i, key in enumerate(keys):
            row = rows[i] if i < len(rows) else None
            why = _row_problem(row, key, gammas, trials)
            if why is None and ref_rows is not None:
                why = _compare_rows(row, ref_rows[i], "reference") if i < len(ref_rows) \
                    else "not in the reference"
            if why is None and prev_rows is not None and i < len(prev_rows):
                why = _compare_rows(row, prev_rows[i], "first repetition")
            if why is None:
                verdict.failed += int(row[10])
            else:
                verdict.failed += trials
                verdict.problems.append(f"row {i + 1} {key[:4]}: {why}")
        return verdict


def _row_problem(row, key, gammas, trials) -> str | None:
    """Schema and invariants that hold at every seed."""
    if row is None:
        return "missing"
    if len(row) != 15:
        return f"{len(row)} columns"
    try:
        got = (row[0], int(row[1]), int(row[2]), None if row[3] == "" else int(row[3]),
               int(row[4]), _float_cell(row[5]), row[6], row[7], int(row[9]), int(row[14]))
        gamma, failures = float(row[8]), int(row[10])
        nmse, stderr, coverage = (_float_cell(c) for c in row[11:14])
    except ValueError as exc:
        return f"unparsable: {exc}"
    if got != key:
        return f"key {got} != {key}"
    if gamma not in (gammas if row[6] != "ls_oracle" else [0.0]):
        return f"gamma_star {gamma} off the grid"
    if not 0 <= failures <= trials:
        return f"failures {failures} out of range"
    if failures < trials:
        if nmse is None or stderr is None or coverage is None:
            return "empty statistic"
        if not (math.isfinite(nmse) and nmse >= 0 and math.isfinite(stderr) and stderr >= 0):
            return f"nmse {nmse} / stderr {stderr} not finite and nonnegative"
        if not 0.0 <= coverage <= 1.0:
            return f"coverage {coverage} outside [0, 1]"
    return None


def _compare_rows(row, ref, label) -> str | None:
    """gamma_star, failures and the row keys exactly; the statistics within REL_TOL."""
    exact = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 14)
    for col in exact:
        if row[col] != ref[col]:
            return f"column {col} is {row[col]!r}, {label} has {ref[col]!r}"
    for col in (11, 12, 13):
        a, b = _float_cell(row[col]), _float_cell(ref[col])
        if (a is None) != (b is None) or (a is not None and not _close(a, b)):
            return f"column {col} is {row[col]!r}, {label} has {ref[col]!r}"
    return None


@dataclass(frozen=True)
class SolveBatch:
    """Independent convolution instances: draw, constant and nonconstant
    weights, one solve and one two-step refit per weight kind."""

    name: str
    p: int = 5000
    m: int = 40
    s: int = 5
    l1: float = 100.0
    gamma: float = 4.0
    block: int = 4
    threads: int = 1
    tail_cap: int = 90
    reference_instances: int = 16

    KINDS = ("constant", "nonconstant")

    @cached_property
    def reference(self) -> dict:
        path = REFERENCE_DIR / f"{self.name}.json"
        return json.loads(path.read_text()) if path.exists() else {}

    @property
    def trials_per_unit(self) -> int:
        return self.block

    def instance(self, pkg, seed: int, index: int) -> dict:
        model, cv, solver = pkg.model, pkg.convolution, pkg.solver
        rng = model.trial_rng(seed, index)
        signal = model.make_sparse_signal(self.p, self.s, self.l1, rng)
        x_star = signal.dense()
        inst = cv.sample_parents(self.p, self.m, rng)
        y = model.sample_poisson(model.apply(cv.sensing_operator(inst), x_star), rng).counts
        pair = cv.surrogate_convolution(inst, y)
        config = solver.SolverConfig(gamma=self.gamma)
        solves = []
        for build in (cv.constant_weights, cv.nonconstant_weights):
            weights = build(inst, y)
            result = solver.weighted_lasso(pair, weights, config)
            support, refit = solver.two_step(result.x_hat, pair, config.support_eps)
            solves.append((weights, result, support, refit))
        return {"index": index, "x_star": x_star, "counts": inst.counts, "y": y,
                "pair": pair, "config": config, "solves": solves}

    def run_unit(self, pkg, seed: int, unit: int, threads: int | None = None):
        instances, latencies, errors = [], [], []
        for index in range(unit * self.block, (unit + 1) * self.block):
            start = perf_counter()
            try:
                instances.append(self.instance(pkg, seed, index))
            except Exception as exc:  # noqa: BLE001 - counted as failed solves
                errors.append(f"instance {index}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(perf_counter() - start)
        return {"instances": instances, "errors": errors, "latencies": latencies}

    def nmse(self, refit, x_star) -> float:
        err = refit - x_star
        return float(err @ err) / self.l1

    def check(self, pkg, output: dict, seed: int, previous=None) -> Verdict:
        """A solve fails if it raised, did not converge, fails the solver's own
        KKT check, or its refit is not least squares on the detected support
        or disagrees with the reference."""
        n_kinds = len(self.KINDS)
        verdict = Verdict(attempted=n_kinds * self.block)
        verdict.failed += n_kinds * len(output["errors"])
        verdict.problems.extend(output["errors"])
        reference = self.reference.get(str(seed), [])
        for inst in output["instances"]:
            expected = reference[inst["index"]] if inst["index"] < len(reference) else None
            for k, solve in enumerate(inst["solves"]):
                why = self._solve_problem(pkg, inst, solve, None if expected is None else expected[k])
                if why is not None:
                    verdict.failed += 1
                    verdict.problems.append(f"instance {inst['index']} {self.KINDS[k]}: {why}")
        return verdict

    def _solve_problem(self, pkg, inst, solve, expected) -> str | None:
        weights, result, support, refit = solve
        config = inst["config"]
        if not result.converged:
            return "did not converge"
        kkt = pkg.solver.kkt_check(inst["pair"], weights, config.gamma, result.x_hat)
        if not kkt <= config.tol_kkt:
            return f"KKT residual {kkt:.3g} above {config.tol_kkt:.3g}"
        detected = np.flatnonzero(np.abs(result.x_hat) > config.support_eps)
        if not np.array_equal(np.asarray(support), detected):
            return "refit support is not the detected support"
        off = np.ones(self.p, dtype=bool)
        off[detected] = False
        if not np.all(np.isfinite(refit)) or np.any(refit[off] != 0.0):
            return "refit not finite or nonzero off the support"
        if detected.size:
            # Normal equations on the support, for the surrogate pair built
            # here from its definition (see wlasso.convolution).
            counts, y = inst["counts"], np.asarray(inst["y"], dtype=np.float64)
            m = int(counts.sum())
            offset = (math.sqrt(m) - 1.0) / self.p
            generator = counts / math.sqrt(m) - offset
            y = y / math.sqrt(m) - offset * (y.sum() / m)
            cols = np.stack([np.roll(generator, k) for k in detected], axis=1)
            gradient = cols.T @ (y - cols @ refit[detected])
            if np.abs(gradient).max() > 1e-8 * (1.0 + np.abs(cols.T @ y).max()):
                return "refit is not least squares on its support"
        nmse = self.nmse(refit, inst["x_star"])
        if not math.isfinite(nmse):
            return f"nmse {nmse}"
        if expected is not None:
            if detected.tolist() != expected["support"]:
                return f"support {detected.tolist()}, reference {expected['support']}"
            if not _close(nmse, expected["nmse"]):
                return f"nmse {nmse!r}, reference {expected['nmse']!r}"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        Sweep("conv_sweep_m", "conv_sweep_m.cfg", threads=1),
        SolveBatch("conv_solve_p5000"),
        Sweep("bern_sweep_p", "bern_sweep_p.cfg", threads=1),
        Sweep("conv_sweep_m_pool", "conv_sweep_m.cfg", threads=min(2, os.cpu_count() or 1)),
    )
}
