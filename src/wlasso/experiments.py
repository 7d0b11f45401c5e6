"""Monte Carlo MSE harness: seeded trials, gamma tuning, CSV output.

Every trial is a pure function of (master_seed, trial_index): signal draw,
sensing draw, Poisson draw, then each requested estimator.  Tuning uses a
disjoint block of trial indices so evaluation trials never leak into the
gamma choice.  Aggregation folds results in trial-index order, so thread
counts and completion order cannot change a single output byte.
"""
from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .model import trial_rng
from .sensing import MODELS, WEIGHT_KINDS, draw, surrogate, weights
from .solver import SolverConfig, two_step, weighted_lasso, oracle_least_squares
from .diagnostics import weights_cover

ESTIMATORS = ("ls_oracle", "lasso_two_step", "wlasso_two_step")
TUNE_INDEX_BASE = 1 << 20

CSV_HEADER = (
    "model,p,s,m,n,q,estimator,weight_kind,gamma_star,trials,failures,"
    "nmse_mean,nmse_stderr,coverage_rate,seed"
)


@dataclass
class ExperimentConfig:
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
    tol_kkt: float = 1e-8
    max_iter: int = 10_000
    support_eps: float = 1e-9

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        for name in ("m_grid", "p_grid", "gamma_grid", "estimators", "weight_kinds"):
            setattr(self, name, tuple(getattr(self, name)))
        for grid, label in ((self.m_grid, "m_grid"), (self.p_grid, "p_grid")):
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{label} must be strictly increasing")
            if any(v < 1 for v in grid):
                raise ValueError(f"{label} values must be >= 1")
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
        if "lasso_two_step" in self.estimators and "constant" not in self.weight_kinds:
            raise ValueError("lasso_two_step needs the constant weight kind")
        if "wlasso_two_step" in self.estimators and not (
            set(self.weight_kinds) & {"nonconstant", "oracle"}
        ):
            raise ValueError("wlasso_two_step needs nonconstant or oracle weights")
        if self.m_coef <= 0:
            raise ValueError("m_coef must be positive")


def m_from_p(p: int, m_coef: float) -> int:
    """Parent-count rule m = round(m_coef * sqrt(p) * log p) for p sweeps."""
    return int(round(m_coef * math.sqrt(p) * math.log(p)))


@dataclass(frozen=True)
class TrialPoint:
    """One fully resolved grid point; picklable so trials can cross processes."""

    model: str
    p: int
    s: int
    m: int
    n: int
    q: float
    target_l1: float
    estimators: tuple[str, ...]
    weight_kinds: tuple[str, ...]
    weight_c: float
    noiseless: bool
    master_seed: int
    tol_kkt: float
    max_iter: int
    support_eps: float


def _point(cfg: ExperimentConfig, p: int, m: int) -> TrialPoint:
    """The grid point at (p, m); every other field is the config's."""
    shared = {f.name: getattr(cfg, f.name) for f in fields(TrialPoint) if f.name != "m"}
    return TrialPoint(**dict(shared, p=p, m=m))


def estimator_keys(point: TrialPoint) -> list[tuple[str, str]]:
    """(estimator, weight_kind) pairs a point produces, in output order."""
    keys = []
    for est in ESTIMATORS:
        if est not in point.estimators:
            continue
        if est == "ls_oracle":
            keys.append((est, "none"))
        elif est == "lasso_two_step":
            keys.append((est, "constant"))
        else:
            for kind in ("nonconstant", "oracle"):
                if kind in point.weight_kinds:
                    keys.append((est, kind))
    return keys


@dataclass
class TrialOutcome:
    nmse: dict
    coverage: dict
    failures: dict


def run_trial(point: TrialPoint, trial_index: int, gamma: float) -> TrialOutcome:
    """One seeded trial: draw signal/design/counts, run every estimator."""
    rng = trial_rng(point.master_seed, trial_index)
    inst, y, x_star, support = draw(
        point.model, point.p, point.s, point.target_l1, rng,
        m=point.m, n=point.n, q=point.q, noiseless=point.noiseless,
    )
    pair = surrogate(inst, y)

    denom = point.target_l1 if point.target_l1 > 0 else 1.0
    nmse: dict = {}
    coverage: dict = {}
    failures: dict = {}

    weights_by_kind = {}
    for kind in dict.fromkeys(k for _, k in estimator_keys(point) if k != "none"):
        try:
            weights_by_kind[kind] = weights(kind, inst, pair, y, x_star, c=point.weight_c)
        except Exception as exc:  # noqa: BLE001 - recorded, not swallowed
            failures[("weights", kind)] = f"{type(exc).__name__}: {exc}"

    for kind, w in weights_by_kind.items():
        coverage[kind] = weights_cover(pair, x_star, w).passed

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        config = SolverConfig(
            gamma=gamma,
            tol_kkt=point.tol_kkt,
            max_iter=point.max_iter,
            support_eps=point.support_eps,
        )

    for est, kind in estimator_keys(point):
        try:
            if est == "ls_oracle":
                if support.size == 0:
                    x_hat = np.zeros(point.p)
                else:
                    x_hat = oracle_least_squares(pair, support)
            else:
                if kind not in weights_by_kind:
                    raise RuntimeError(failures.get(("weights", kind), "no weights"))
                result = weighted_lasso(pair, weights_by_kind[kind], config)
                _, x_hat = two_step(result.x_hat, pair, point.support_eps)
            err = x_hat - x_star
            nmse[(est, kind)] = float(err @ err) / denom
        except Exception as exc:  # noqa: BLE001
            failures[(est, kind)] = f"{type(exc).__name__}: {exc}"

    return TrialOutcome(nmse=nmse, coverage=coverage, failures=failures)


def _trial_task(args):
    point, index, gamma = args
    return index, run_trial(point, index, gamma)


def _map_trials(point, indices, gamma, threads):
    tasks = [(point, i, gamma) for i in indices]
    if threads == 1 or len(tasks) <= 1:
        results = map(_trial_task, tasks)
    else:
        workers = os.cpu_count() or 1 if threads == 0 else threads
        chunk = max(1, len(tasks) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_task, tasks, chunksize=chunk))
    return {i: out for i, out in results}


def tune_gamma(
    cfg: ExperimentConfig, point: TrialPoint, threads: int = 1
) -> dict[tuple[str, str], float]:
    """Pick gamma per estimator on a disjoint tuning block; ties go small."""
    keys = [k for k in estimator_keys(point) if k[0] != "ls_oracle"]
    out = {("ls_oracle", "none"): 0.0}
    if not keys:
        return out
    if len(cfg.gamma_grid) == 1:
        for key in keys:
            out[key] = cfg.gamma_grid[0]
        return out
    indices = [TUNE_INDEX_BASE + j for j in range(cfg.tune_trials)]
    means = {key: [] for key in keys}
    for gamma in cfg.gamma_grid:
        outcomes = _map_trials(point, indices, gamma, threads)
        for key in keys:
            vals = [
                o.nmse[key]
                for _, o in sorted(outcomes.items())
                if key in o.nmse
            ]
            means[key].append(np.mean(vals) if vals else math.inf)
    for key in keys:
        arr = np.asarray(means[key])
        out[key] = cfg.gamma_grid[int(np.argmin(arr))]
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
    gamma_star: float
    trials: int
    failures: int
    nmse_mean: Optional[float]
    nmse_stderr: Optional[float]
    coverage_rate: Optional[float]
    seed: int


def run_point(
    cfg: ExperimentConfig, point: TrialPoint, threads: int = 1
) -> list[ExperimentRow]:
    gamma_star = tune_gamma(cfg, point, threads)
    keys = estimator_keys(point)
    eval_gammas = sorted({gamma_star[k] for k in keys if k[0] != "ls_oracle"})
    if not eval_gammas:
        eval_gammas = [cfg.gamma_grid[0]]
    indices = list(range(cfg.trials))
    outcomes_by_gamma = {
        g: _map_trials(point, indices, g, threads) for g in eval_gammas
    }

    convolution = point.model == "convolution"
    rows = []
    for key in keys:
        est, kind = key
        g_star = gamma_star.get(key, 0.0)
        source = outcomes_by_gamma[eval_gammas[0] if est == "ls_oracle" else g_star]
        vals, covered, failures = [], [], 0
        for i in indices:
            o = source[i]
            if key in o.nmse:
                vals.append(o.nmse[key])
                covered.append(True if kind == "none" else o.coverage.get(kind, False))
            else:
                failures += 1
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
                model=point.model,
                p=point.p,
                s=point.s,
                m=point.m if convolution else None,
                n=point.p if convolution else point.n,
                q=None if convolution else point.q,
                estimator=est,
                weight_kind=kind,
                gamma_star=g_star,
                trials=cfg.trials,
                failures=failures,
                nmse_mean=mean,
                nmse_stderr=stderr,
                coverage_rate=cov,
                seed=cfg.master_seed,
            )
        )
    return rows


def run_mse_vs_m(cfg: ExperimentConfig, threads: int = 1) -> list[ExperimentRow]:
    """Error-versus-parents sweep; rows appear in increasing m."""
    if cfg.model != "convolution":
        raise ValueError("the m sweep is defined for the convolution model")
    rows = []
    for m in cfg.m_grid:
        rows.extend(run_point(cfg, _point(cfg, cfg.p, m), threads))
    return rows


def run_mse_vs_p(cfg: ExperimentConfig, threads: int = 1) -> list[ExperimentRow]:
    """Error-versus-dimension sweep; convolution derives m from the m rule."""
    rows = []
    for p in cfg.p_grid:
        m = m_from_p(p, cfg.m_coef) if cfg.model == "convolution" else 0
        rows.extend(run_point(cfg, _point(cfg, p, m), threads))
    return rows


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
