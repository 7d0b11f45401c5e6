"""Monte Carlo MSE harness: seeded trials, gamma tuning, CSV output.

Every trial is a pure function of (master_seed, trial_index): one signal
draw, sensing draw and Poisson draw, one set of weights, then each requested
estimator at every requested gamma, each gamma solved from a cold start.
Tuning runs each trial of a disjoint block of indices once over the whole
gamma grid, so evaluation trials never leak into the gamma choice; evaluation
then runs each trial once over the tuned gammas.  A sweep runs every trial on
one process pool (none at one thread).  Aggregation folds results in
trial-index order, so thread counts and completion order cannot change a
single output byte.

ExperimentConfig is the schema of a sweep: each setting's name, type, default
and order live on it once, and config parsing, trial points, estimator keys
and the dump derive from it.  ExperimentRow is the schema of the CSV.
"""
from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Iterator, Optional, get_origin, get_type_hints

import numpy as np

from .errors import NonConvergenceError, ParameterError
from .model import MAX_LENGTH, check_seed, deviation_at_truth, trial_rng
from .sensing import (
    MODELS, WEIGHT_KINDS, check_params, draw, oracle_weights, surrogate, weights,
)
from .solver import (
    SolverConfig, check_gamma, detected_support, weighted_lasso, oracle_least_squares,
)
from .diagnostics import weights_cover

# estimator -> the weight kinds it runs with, in output order
ESTIMATOR_KINDS = {
    "ls_oracle": ("none",),
    "lasso_two_step": ("constant",),
    "wlasso_two_step": ("nonconstant", "oracle"),
}
ESTIMATORS = tuple(ESTIMATOR_KINDS)
ESTIMATOR_OF = {kind: est for est, kinds in ESTIMATOR_KINDS.items() for kind in kinds}
TUNE_INDEX_BASE = 1 << 20


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep's settings; frozen, so a TrialPoint holding it hashes."""

    model: str = "convolution"
    p: int = 1000
    s: int = 5
    n: int = 5000
    q: float = 0.5
    m_grid: tuple[int, ...] = ()
    p_grid: tuple[int, ...] = ()
    m_coef: float = 0.25
    trials: int = 100
    tune_trials: int = 50
    gamma_grid: tuple[float, ...] = (2.1, 3.0, 4.0, 6.0, 8.0)
    target_l1: float = 100.0
    master_seed: int = 0
    estimators: tuple[str, ...] = ESTIMATORS
    weight_kinds: tuple[str, ...] = ("constant", "nonconstant")
    weight_c: float = 1.0
    noiseless: bool = False
    allow_small_gamma: bool = False

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        for name, kind in get_type_hints(ExperimentConfig).items():
            if get_origin(kind) is tuple:
                object.__setattr__(self, name, tuple(getattr(self, name)))
        for grid, label in ((self.m_grid, "m_grid"), (self.p_grid, "p_grid")):
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{label} must be strictly increasing")
            if any(v < 1 for v in grid):
                raise ValueError(f"{label} values must be >= 1")
        if self.m_grid and self.p_grid:
            raise ValueError("config sets both m_grid and p_grid; pick one sweep")
        if self.m_grid and self.model != "convolution":
            raise ParameterError("m_grid", "needs model = convolution", self.model)
        if not self.gamma_grid:
            raise ValueError("gamma_grid must be nonempty")
        if any(b <= a for a, b in zip(self.gamma_grid, self.gamma_grid[1:])):
            raise ValueError("gamma_grid must be strictly increasing")
        if not self.allow_small_gamma and any(g <= 2 for g in self.gamma_grid):
            raise ValueError(
                "gamma_grid values must be > 2 (set allow_small_gamma to explore)"
            )
        if self.trials < 1 or self.tune_trials < 1:
            raise ValueError("trials and tune_trials must be >= 1")
        if self.trials > TUNE_INDEX_BASE or self.tune_trials > TUNE_INDEX_BASE:
            raise ValueError("trial counts exceed the tuning index block")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown or not self.estimators:
            raise ValueError(f"unknown estimators {sorted(unknown)}")
        unknown = set(self.weight_kinds) - set(WEIGHT_KINDS)
        if unknown:
            raise ValueError(f"unknown weight kinds {sorted(unknown)}")
        keyless = set(self.estimators) - {est for est, _ in estimator_keys(self)}
        if keyless:
            raise ValueError("; ".join(
                f"{est} needs weight kind {' or '.join(ESTIMATOR_KINDS[est])}"
                for est in sorted(keyless)
            ))
        if not 0 < self.m_coef < math.inf:
            raise ValueError("m_coef must be positive and finite")
        self._check_ranges()

    def _check_ranges(self) -> None:
        """Reject, naming the key, what a solve at some gamma or a draw at some point would."""
        try:
            check_seed(self.master_seed, "master_seed")
            for gamma in self.gamma_grid:
                check_gamma(gamma)
            points = [(self.p, m) for m in self.m_grid] + [(p, _m_at(self, p)) for p in self.p_grid]
            for p, m in points:
                check_params(
                    self.model, p, self.s, self.target_l1,
                    m=m, n=self.n, q=self.q, c=self.weight_c,
                )
        except ParameterError as exc:  # a point's p and m come from the one grid set
            grid = {"m": "m_grid"} if self.m_grid else {"p": "p_grid", "m": "p_grid"}
            key = {"gamma": "gamma_grid", "c": "weight_c", **grid}.get(exc.name, exc.name)
            raise ValueError(str(exc) if key == exc.name else f"{key}: {exc}") from exc


def m_from_p(p: int, m_coef: float) -> int:
    """Parent-count rule m = round(m_coef * sqrt(p) * log p) for p sweeps."""
    m = m_coef * math.sqrt(p) * math.log(p)
    if not m <= MAX_LENGTH:  # inf, or no array numpy can hold
        raise ParameterError("m_coef", f"gives m = {m:.3g} at p = {p}, too long for numpy", m_coef)
    return int(round(m))


def _m_at(cfg: ExperimentConfig, p: int) -> int:
    """The parent count of the p sweep's point at p; Bernoulli has none."""
    return m_from_p(p, cfg.m_coef) if cfg.model == "convolution" else 0


@dataclass(frozen=True)
class TrialPoint:
    """The grid point at (p, m) of a sweep; hashable and picklable, so trials
    can cross processes.  Every other setting is cfg's."""

    cfg: ExperimentConfig
    p: int
    m: int


def estimator_keys(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    """(estimator, weight_kind) pairs a config produces, in output order."""
    return [
        (est, kind)
        for est, kinds in ESTIMATOR_KINDS.items() if est in cfg.estimators
        for kind in kinds if kind == "none" or kind in cfg.weight_kinds
    ]


def estimates(pair, support, built, cells) -> Iterator[tuple]:
    """The estimator rule: yield (cell, result, estimate) for each (estimator, kind, gamma) cell.

    ls_oracle refits the true support and has no solve (result None).  Every
    other estimator solves at built[kind] under `_solver_config(gamma)` and
    refits the support it detects.  Each distinct support is refit once: the
    same Gram block gives the same bits.  The estimate is the error raised in
    its place when the weights (built[kind] is that error), the solve or the
    refit raised; an error is never cached, so it fails each of its cells.  A
    result that did not converge is yielded as it is, with its refit.  Lazy:
    a cell is estimated only when it is asked for, so a caller that stops at
    an error does no further work.
    """
    refits: dict = {b"": np.zeros(pair.a_tilde.n_cols)}  # the empty support refits to zero
    for est, kind, gamma in cells:
        result = None
        try:
            if est != "ls_oracle":
                if isinstance(built[kind], Exception):
                    raise built[kind]
                result = weighted_lasso(pair, built[kind], _solver_config(gamma))
            cols = support if result is None else detected_support(result.x_hat)
            if cols.tobytes() not in refits:
                refits[cols.tobytes()] = oracle_least_squares(pair, cols)
            estimate = refits[cols.tobytes()]
        except Exception as exc:  # noqa: BLE001 - yielded in the estimate's place
            estimate = exc
        yield (est, kind, gamma), result, estimate


@dataclass
class TrialOutcome:
    """nmse and failures keyed by (estimator, weight_kind, gamma); ls_oracle at gamma 0."""

    nmse: dict
    coverage: dict
    failures: dict


def run_trial(point: TrialPoint, trial_index: int, gammas: tuple[float, ...]) -> TrialOutcome:
    """One seeded trial: one draw, then every estimator at every gamma.

    The draw, the surrogate pair, the weights, their coverage and ls_oracle do
    not depend on gamma, so each is built once; every gamma is solved from a
    cold start, so its numbers do not depend on the other gammas.  The score
    at the truth is computed once and serves every kind's coverage and the
    oracle weights, so a trial applies the design and its adjoint twice each
    (the intensity and aty, then that score), whatever its gammas and kinds.
    The estimates come from `estimates`, the estimator rule `wlasso solve`
    shares; a solve that did not converge fails its cell as a
    NonConvergenceError.
    """
    cfg = point.cfg
    rng = trial_rng(cfg.master_seed, trial_index)
    inst, y, x_star, support = draw(
        cfg.model, point.p, cfg.s, cfg.target_l1, rng,
        m=point.m, n=cfg.n, q=cfg.q, noiseless=cfg.noiseless,
    )
    pair = surrogate(inst, y)

    keys = estimator_keys(cfg)
    built: dict = {}
    coverage: dict = {}
    deviation = deviation_at_truth(pair, x_star)
    for kind in dict.fromkeys(k for _, k in keys if k != "none"):
        try:
            if kind == "oracle":
                built[kind] = oracle_weights(deviation)
            else:
                built[kind] = weights(kind, inst, pair, y, c=cfg.weight_c)
            coverage[kind] = weights_cover(deviation, built[kind]).passed
        except Exception as exc:  # noqa: BLE001 - fails each of its cells below
            built[kind] = exc

    denom = cfg.target_l1 if cfg.target_l1 > 0 else 1.0
    nmse: dict = {}
    failures: dict = {}
    cells = [k + (0.0,) for k in keys if k[0] == "ls_oracle"]
    cells += [k + (gamma,) for gamma in gammas for k in keys if k[0] != "ls_oracle"]
    for cell, result, x_hat in estimates(pair, support, built, cells):
        if result is not None and not result.converged:
            x_hat = NonConvergenceError(result.iterations, result.kkt_residual)
        if isinstance(x_hat, Exception):  # recorded, not swallowed
            failures[cell] = f"{type(x_hat).__name__}: {x_hat}"
        else:
            err = x_hat - x_star
            nmse[cell] = float(err @ err) / denom
    return TrialOutcome(nmse=nmse, coverage=coverage, failures=failures)


def _solver_config(gamma: float) -> SolverConfig:
    """SolverConfig at gamma, minus its gamma <= 2 warning (allow_small_gamma opens such grids)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return SolverConfig(gamma)


def _map_trials(point, indices, gammas, pool) -> list[TrialOutcome]:
    """run_trial at each index over the gammas, in index order, serially or on the pool."""
    args = (repeat(point), indices, repeat(gammas))
    return list(map(run_trial, *args) if pool is None else pool.map(run_trial, *args))


def tune_gamma(
    point: TrialPoint, pool: Optional[Executor] = None
) -> dict[tuple[str, str], Optional[float]]:
    """Pick gamma per estimator on a disjoint tuning block; ties go small.

    Every gamma is scored on the same trials: those the estimator finished at
    every gamma of the grid.  If there are none, its gamma is None (untuned).
    """
    cfg = point.cfg
    keys = [k for k in estimator_keys(cfg) if k[0] != "ls_oracle"]
    out = {("ls_oracle", "none"): 0.0}
    if not keys:
        return out
    if len(cfg.gamma_grid) == 1:
        for key in keys:
            out[key] = cfg.gamma_grid[0]
        return out
    indices = range(TUNE_INDEX_BASE, TUNE_INDEX_BASE + cfg.tune_trials)
    outcomes = _map_trials(point, indices, cfg.gamma_grid, pool)
    for key in keys:
        cells = [key + (gamma,) for gamma in cfg.gamma_grid]
        common = [o for o in outcomes if all(c in o.nmse for c in cells)]
        if not common:
            out[key] = None
            continue
        means = [np.mean([o.nmse[c] for o in common]) for c in cells]
        out[key] = cfg.gamma_grid[int(np.argmin(means))]
    return out


@dataclass
class ExperimentRow:
    model: str
    p: int
    s: int
    m: Optional[int]
    n: int
    q: Optional[float]
    estimator: str
    weight_kind: str
    gamma_star: Optional[float]
    trials: int
    failures: int
    nmse_mean: Optional[float]
    nmse_stderr: Optional[float]
    coverage_rate: Optional[float]
    seed: int


CSV_HEADER = ",".join(f.name for f in fields(ExperimentRow))


def run_point(point: TrialPoint, pool: Optional[Executor] = None) -> list[ExperimentRow]:
    cfg = point.cfg
    gamma_star = tune_gamma(point, pool)
    keys = estimator_keys(cfg)
    gammas = tuple(sorted(
        {g for k, g in gamma_star.items() if k[0] != "ls_oracle" and g is not None}
    ))
    outcomes = _map_trials(point, range(cfg.trials), gammas, pool)

    convolution = cfg.model == "convolution"
    rows = []
    for est, kind in keys:
        g_star = gamma_star[(est, kind)]
        # an untuned estimator (g_star None) has no cell, so every trial counts as failed
        cell = (est, kind, g_star)
        done = [o for o in outcomes if cell in o.nmse]
        vals = [o.nmse[cell] for o in done]
        covered = [True if kind == "none" else o.coverage.get(kind, False) for o in done]
        if vals:
            mean = float(np.mean(vals))
            stderr = (
                float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
                if len(vals) > 1
                else 0.0
            )
            cov = float(np.mean(covered))
        else:
            mean = stderr = cov = None
        rows.append(
            ExperimentRow(
                model=cfg.model,
                p=point.p,
                s=cfg.s,
                m=point.m if convolution else None,
                n=point.p if convolution else cfg.n,
                q=None if convolution else cfg.q,
                estimator=est,
                weight_kind=kind,
                gamma_star=g_star,
                trials=cfg.trials,
                failures=cfg.trials - len(vals),
                nmse_mean=mean,
                nmse_stderr=stderr,
                coverage_rate=cov,
                seed=cfg.master_seed,
            )
        )
    return rows


def _sweep(points, threads: int) -> list[ExperimentRow]:
    """Rows of every point in order, on one process pool (none at threads = 1)."""
    if threads < 0:
        raise ParameterError("threads", "must be >= 0 (0 = all cores)", threads)
    workers = threads or os.cpu_count() or 1
    with nullcontext() if threads == 1 else ProcessPoolExecutor(workers) as pool:
        return [row for point in points for row in run_point(point, pool)]


def run_mse_vs_m(cfg: ExperimentConfig, threads: int = 1) -> list[ExperimentRow]:
    """Error-versus-parents sweep, convolution only; rows appear in increasing m."""
    return _sweep([TrialPoint(cfg, cfg.p, m) for m in cfg.m_grid], threads)


def run_mse_vs_p(cfg: ExperimentConfig, threads: int = 1) -> list[ExperimentRow]:
    """Error-versus-dimension sweep; convolution derives m from the m rule."""
    return _sweep([TrialPoint(cfg, p, _m_at(cfg, p)) for p in cfg.p_grid], threads)


def _fmt_float(x: Optional[float]) -> str:
    if x is None:
        return ""
    return f"{x:.10g}"


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    """One line per row, columns in field order; floats keep 10 significant digits."""
    lines = [CSV_HEADER]
    for r in rows:
        values = (getattr(r, f.name) for f in fields(r))
        lines.append(",".join(
            str(v) if isinstance(v, (int, str)) else _fmt_float(v) for v in values
        ))
    return "\n".join(lines) + "\n"
