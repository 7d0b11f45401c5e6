"""Monte Carlo MSE harness: seeded trials, gamma tuning, CSV output.

Every trial is a pure function of (master_seed, trial_index): one signal
draw, sensing draw and Poisson draw, weights for the kinds its cells name,
then each (estimator, weight kind, gamma) cell it is given, each solve
started from the last converged solution in the trial (see `estimates`).
Tuning runs each trial of a disjoint block of indices once over every tuned
key's gamma grid, so evaluation trials never leak into the gamma choice; it
lists each grid in descending gamma, so each is a warm-started path.
Evaluation then runs each trial once with every key at its own tuned gamma.
A pooled sweep is one task queue of contiguous blocks of trials: every
point's tuning blocks at once, then each point's evaluation blocks as soon
as its tuning returns (none at one thread or one usable core).
Aggregation folds results in trial-index order, so thread counts and
completion order cannot change a single output byte.

ExperimentConfig is the schema of a sweep: each setting's name, type, default
and order live on it once, and config parsing, trial points, estimator keys
and the dump derive from it.  ExperimentRow is the schema of the CSV.
"""
from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Iterator, Optional, get_origin, get_type_hints

import numpy as np

from .errors import NonConvergenceError, ParameterError
from .model import check_seed, check_size, trial_rng
from .sensing import MODELS, WEIGHT_KINDS, check_params, draw, surrogate, weights
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


def key_gammas(cfg: ExperimentConfig, key: tuple[str, str]) -> tuple[float, ...]:
    """The gammas a key is tuned over: ls_oracle solves nothing, so (0.0,); else the grid."""
    return (0.0,) if key[0] == "ls_oracle" else cfg.gamma_grid


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
        for name, kind in CONFIG_TYPES.items():
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
        if not self.estimators:
            raise ValueError("estimators must be nonempty")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
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


# each setting's type, resolved once: __post_init__ and config parsing both read it
CONFIG_TYPES = get_type_hints(ExperimentConfig)


def m_from_p(p: int, m_coef: float) -> int:
    """Parent-count rule m = round(m_coef * sqrt(p) * log p) for p sweeps."""
    m = m_coef * math.sqrt(p) * math.log(p)
    check_size("m_coef", m_coef, m)  # m is inf if the product overflows
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


def estimates(pair, x_star, built, cells) -> Iterator[tuple]:
    """The estimator rule: yield (cell, result, estimate) for each (estimator, kind, gamma) cell.

    ls_oracle refits the true support, np.flatnonzero(x_star), and has no
    solve (result None).  Every other estimator solves at built[kind] under
    `_solver_config(gamma)` and refits the support it detects.  Each distinct
    support, the empty one included, is refit once by oracle_least_squares:
    the same Gram block gives the same bits.  The estimate is the error raised
    in its place when the weights (built[kind] is that error), the solve or
    the refit raised; an error is never cached, so it fails each of its cells.
    A result that did not converge is yielded as it is, with its refit.  Lazy:
    a cell is estimated only when it is asked for, so a caller that stops at
    an error does no further work.

    The solves are chained: each starts from the x_hat of the last solve in
    this call that converged, whatever its key, and from zero before there is
    one; a result that did not converge, or a cell that raised, is not passed
    on.  So a cell's x_hat, iterations, gap and kkt_residual may move at
    rounding level with the cells before it, but its estimate, the refit of
    the support it detects, does not.  The chain starts afresh in each call,
    so the estimates are a pure function of the call's arguments.
    """
    refits: dict = {}
    x0 = None
    for est, kind, gamma in cells:
        result = None
        try:
            if est != "ls_oracle":
                if isinstance(built[kind], Exception):
                    raise built[kind]
                result = weighted_lasso(pair, built[kind], _solver_config(gamma), x0)
                if result.converged:
                    x0 = result.x_hat
            cols = np.flatnonzero(x_star) if result is None else detected_support(result.x_hat)
            if cols.tobytes() not in refits:
                refits[cols.tobytes()] = oracle_least_squares(pair, cols)
            estimate = refits[cols.tobytes()]
        except Exception as exc:  # noqa: BLE001 - yielded in the estimate's place
            estimate = exc
        yield (est, kind, gamma), result, estimate


@dataclass
class TrialOutcome:
    """nmse and failures keyed by (estimator, weight_kind, gamma) cell, coverage by
    weight kind; a kind that builds no weights (ls_oracle's none) has no coverage."""

    nmse: dict
    coverage: dict
    failures: dict


def run_trial(point: TrialPoint, trial_index: int, cells: tuple[tuple, ...]) -> TrialOutcome:
    """One seeded trial: one draw, then exactly the (estimator, kind, gamma) cells given.

    The draw, the surrogate pair, and each kind's weights and coverage do not
    depend on gamma, so each is built once, and only for the kinds the cells
    name; each solve starts from the last converged solution in the trial
    (`estimates`), so a cell's x_hat, iterations, gap and kkt_residual may move
    at rounding level with the cells before it, while its nmse, which goes
    through the refit of the detected support, does not.  The score at the
    truth is read once off the pair's Gram rows (`SurrogatePair.score`), and
    every kind's weights come from `weights`, which reads it for the oracle
    kind; every kind's coverage is judged against it.  So a trial applies the
    design once, for the intensity, and its adjoint once, for aty, whatever
    its cells.  The estimates come from `estimates`, the estimator rule
    `wlasso solve` shares; a solve that did not converge fails
    its cell as a NonConvergenceError.  nmse divides by cfg.target_l1, which
    the drawn x* sums to up to rounding (`wlasso solve` divides by ||x*||_1).
    """
    cfg = point.cfg
    rng = trial_rng(cfg.master_seed, trial_index)
    inst, y, x_star = draw(
        cfg.model, point.p, cfg.s, cfg.target_l1, rng,
        m=point.m, n=cfg.n, q=cfg.q, noiseless=cfg.noiseless,
    )
    pair = surrogate(inst, y)

    built: dict = {}
    coverage: dict = {}
    deviation = pair.score(x_star)
    for kind in dict.fromkeys(kind for _, kind, _ in cells if kind != "none"):
        try:
            built[kind] = weights(kind, inst, y, deviation, c=cfg.weight_c)
            coverage[kind] = weights_cover(deviation, built[kind]).passed
        except Exception as exc:  # noqa: BLE001 - fails each of its cells below
            built[kind] = exc

    denom = cfg.target_l1 if cfg.target_l1 > 0 else 1.0
    nmse: dict = {}
    failures: dict = {}
    for cell, result, x_hat in estimates(pair, x_star, built, cells):
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


def _map_trials(point, indices, cells) -> list[TrialOutcome]:
    """run_trial at each index over the same cells, in index order; one pool task."""
    return [run_trial(point, i, cells) for i in indices]


def _tuning(cfg: ExperimentConfig) -> tuple[range, tuple]:
    """The tuning block's indices, and every tuned key's cells over its grid in
    descending gamma, a warm-started path in `estimates`; a key with one gamma
    (see `key_gammas`) needs no tuning, so it has no cell."""
    cells = tuple(key + (g,) for key in estimator_keys(cfg)
                  if len(key_gammas(cfg, key)) > 1 for g in reversed(key_gammas(cfg, key)))
    return range(TUNE_INDEX_BASE, TUNE_INDEX_BASE + cfg.tune_trials), cells


def _pick_gammas(cfg: ExperimentConfig, outcomes) -> dict[tuple[str, str], Optional[float]]:
    """The tuning rule: per key, its grid's argmin of mean nmse; ties go small.

    Every gamma of a key is scored on the same trials: those the key finished
    at every gamma of its grid.  If there are none, its gamma is None (untuned).
    """
    out = {}
    for key in estimator_keys(cfg):
        grid = key_gammas(cfg, key)
        key_cells = [key + (g,) for g in grid]
        common = [o for o in outcomes if all(c in o.nmse for c in key_cells)]
        means = [np.mean([o.nmse[c] for o in common]) for c in key_cells] if common else ()
        out[key] = grid[0] if len(grid) == 1 else grid[int(np.argmin(means))] if common else None
    return out


def tune_gamma(point: TrialPoint) -> dict[tuple[str, str], Optional[float]]:
    """Pick gamma per estimator key on a disjoint tuning block, by `_pick_gammas`."""
    indices, cells = _tuning(point.cfg)
    return _pick_gammas(point.cfg, _map_trials(point, indices, cells) if cells else [])


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


def _evaluation(cfg: ExperimentConfig, gamma_star) -> tuple[range, tuple]:
    """The evaluation indices, and each key's cell at its tuned gamma; an untuned
    key's cell (gamma None) is not run, so every trial of it counts as failed."""
    return range(cfg.trials), tuple(key + (g,) for key, g in gamma_star.items() if g is not None)


def run_point(point: TrialPoint) -> list[ExperimentRow]:
    """One point in-process: tune, then run every trial at the tuned gammas."""
    gamma_star = tune_gamma(point)
    return _rows(point, gamma_star, _map_trials(point, *_evaluation(point.cfg, gamma_star)))


def _rows(point: TrialPoint, gamma_star, outcomes) -> list[ExperimentRow]:
    """A point's rows, one per estimator key, from its evaluation outcomes."""
    cfg = point.cfg
    convolution = cfg.model == "convolution"
    rows = []
    for (est, kind), g_star in gamma_star.items():
        cell = (est, kind, g_star)
        done = [o for o in outcomes if cell in o.nmse]
        vals = [o.nmse[cell] for o in done]
        covered = [o.coverage.get(kind, True) for o in done]  # no weights, nothing to miss
        mean = stderr = cov = None
        if vals:
            mean, cov = float(np.mean(vals)), float(np.mean(covered))
            stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
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
    """Rows of every point in order, from one task queue or in-process; 0 = every usable core."""
    if threads < 0:
        raise ParameterError("threads", "must be >= 0 (0 = every usable core)", threads)
    usable = getattr(os, "sched_getaffinity", None)
    workers = threads or (len(usable(0)) if usable else os.cpu_count() or 1)
    if workers == 1:
        return [row for point in points for row in run_point(point)]
    with ProcessPoolExecutor(workers) as pool:
        def queue(point, indices, cells):  # at most 2 * workers contiguous blocks
            size = -(-len(indices) // (2 * workers))
            return [pool.submit(_map_trials, point, indices[i:i + size], cells)
                    for i in (range(0, len(indices), size) if cells else ())]

        def outcomes(tasks):
            return [outcome for task in tasks for outcome in task.result()]

        try:
            tuning = [queue(point, *_tuning(point.cfg)) for point in points]
            evaluation = []
            for point, tasks in zip(points, tuning):
                gamma_star = _pick_gammas(point.cfg, outcomes(tasks))
                evaluation.append((gamma_star, queue(point, *_evaluation(point.cfg, gamma_star))))
            return [row for point, (gamma_star, tasks) in zip(points, evaluation)
                    for row in _rows(point, gamma_star, outcomes(tasks))]
        except BaseException:  # fail fast: cancel every queued block, then raise
            pool.shutdown(cancel_futures=True)
            raise


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
