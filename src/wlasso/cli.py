"""Command-line front end: solve | weights | diagnose | experiment | concentration-test.

Exit codes: 0 success, 1 usage error, 2 runtime error.  All randomness flows
from one seed (flag > config file > WLASSO_SEED env var > 0), which must be
>= 0; reruns with the same inputs produce byte-identical outputs.  No
subcommand mutates its inputs.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from . import bernoulli as _bernoulli
from . import convolution as _convolution
from .config import (
    apply_overrides,
    experiment_config_from_mapping,
    format_experiment_config,
    parse_config_text,
)
from .concentration import check_theta, tail_coverage_test
from .diagnostics import assumption_report
from .errors import ParameterError, WeightKindError
from .experiments import ESTIMATOR_OF, estimates, run_mse_vs_m, run_mse_vs_p, rows_to_csv
from .model import check_seed, trial_rng
from .sensing import (
    MODELS,
    WEIGHT_KINDS,
    Draw,
    check_weight_kind,
    default_theta,
    draw,
    surrogate,
    weights,
)
from .solver import check_gamma


class _UsageError(Exception):
    pass


# ParameterError names that differ from the flag that sets them
_FLAG_OF = {"target_l1": "l1", "n_trials": "trials", "rip_s": "rip-s"}


def _env_seed() -> int:
    raw = os.environ.get("WLASSO_SEED", "")
    if not raw:
        return 0
    try:
        return check_seed(int(raw), "WLASSO_SEED")
    except ValueError as exc:
        raise _UsageError(f"WLASSO_SEED must be an integer >= 0, got {raw!r}") from exc


def _resolve_seed(flag_seed: Optional[int]) -> int:
    return check_seed(flag_seed) if flag_seed is not None else _env_seed()


def _add_instance_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", choices=MODELS, default="convolution")
    sub.add_argument("--p", type=int, default=200)
    sub.add_argument("--s", type=int, default=5)
    sub.add_argument("--m", type=int, default=20, help="parents (convolution)")
    sub.add_argument("--n", type=int, default=5000, help="rows (bernoulli)")
    sub.add_argument("--q", type=float, default=0.5, help="Bernoulli rate")
    sub.add_argument("--l1", type=float, default=100.0, help="signal total mass")
    sub.add_argument("--noiseless", action="store_true")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--instance", help="read instance from a .npz file instead")


def _bad_field(key: str, why: str) -> _UsageError:
    return _UsageError(f"instance file: {key!r} {why}")


def _instance_field(arrays, key: str, ndim: int) -> np.ndarray:
    """arrays[key] as floats, if it is a finite number, vector or matrix."""
    value = np.asarray(arrays[key])
    if value.dtype.kind not in "biuf" or value.ndim != ndim or not np.all(np.isfinite(value)):
        raise _bad_field(key, f"must be a finite {('number', 'vector', 'matrix')[ndim]}")
    return value.astype(np.float64)


def _load_instance(path: str, q_flag: float) -> Draw:
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    if "counts" in arrays:
        counts = _instance_field(arrays, "counts", 1)
        if counts.size < 2 or np.any(counts < 0) or np.any(counts % 1) or not counts.any():
            raise _bad_field("counts", "must be p >= 2 nonnegative integers, not all zero")
        inst = _convolution.ConvolutionInstance(
            p=counts.size, m=int(counts.sum()), counts=counts
        )
        rows = inst.p
    elif "a" in arrays:
        a = _instance_field(arrays, "a", 2)
        if min(a.shape) < 2:
            raise _bad_field("a", f"must be at least 2 x 2, got {a.shape[0]} x {a.shape[1]}")
        if np.any((a != 0) & (a != 1)):
            raise _bad_field("a", "must have entries in {0, 1}")
        q = float(_instance_field(arrays, "q", 0)) if "q" in arrays else q_flag
        if not 0.0 < q < 1.0:
            raise _bad_field("q", f"must lie in (0, 1), got {q!r}")
        inst = _bernoulli.BernoulliInstance(
            n=a.shape[0], p=a.shape[1], q=q, a=a, column_sums=a.sum(axis=0)
        )
        rows = inst.n
    else:
        raise _UsageError("instance file needs either 'counts' or 'a'")
    if "y" not in arrays:
        raise _UsageError("instance file needs 'y'")
    y = _instance_field(arrays, "y", 1)
    if y.size != rows or np.any(y < 0):
        raise _bad_field("y", f"must be {rows} nonnegative values, got {y.size} values")
    x_star = support = None
    if "x_star" in arrays:
        x_star = _instance_field(arrays, "x_star", 1)
        if x_star.size != inst.p:
            raise _bad_field("x_star", f"must have length p = {inst.p}, got {x_star.size}")
        support = np.flatnonzero(x_star)
    return Draw(inst, y, x_star, support)


def _instance_from_args(args) -> Draw:
    if args.instance:
        return _load_instance(args.instance, args.q)
    rng = trial_rng(_resolve_seed(args.seed))
    return draw(
        args.model, args.p, args.s, args.l1, rng,
        m=args.m, n=args.n, q=args.q, noiseless=args.noiseless,
    )


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _nmse(x_hat: np.ndarray, x_star: np.ndarray) -> str:
    """||x_hat - x*||^2 / ||x*||_1, or over 1 when x* = 0, as run_trial divides."""
    err = x_hat - x_star
    return _fmt(float(err @ err) / (float(np.abs(x_star).sum()) or 1.0))


def _cmd_solve(args) -> int:
    inst, y, x_star, support = _instance_from_args(args)
    kinds = [kind.strip() for kind in args.weights.split(",")]
    for kind in kinds:
        check_weight_kind(kind, x_star)
    pair = surrogate(inst, y)
    check_gamma(args.gamma)  # a usage error before any work
    built = {kind: weights(kind, inst, pair, y, x_star, args.theta, args.c) for kind in kinds}
    cells = [("ls_oracle", "none", 0.0)] if support is not None and support.size else []
    cells += [(ESTIMATOR_OF[kind], kind, args.gamma) for kind in kinds]
    lines = []
    for (est, kind, _), result, x_hat in estimates(pair, support, built, cells):
        if isinstance(x_hat, Exception):
            raise x_hat
        parts = [f"estimator={est}", f"weight_kind={kind}"]
        if x_star is not None:
            parts.append(f"nmse={_nmse(x_hat, x_star)}")
        if result is not None:
            parts += [
                f"kkt={_fmt(result.kkt_residual)}",
                f"iterations={result.iterations}",
                f"working_set={result.working_set}",
                f"gap={_fmt(result.gap)}",
                f"converged={'true' if result.converged else 'false'}",
            ]
        lines.append(" ".join(parts))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_weights(args) -> int:
    inst, y, x_star, _ = _instance_from_args(args)
    w = weights(args.kind, inst, surrogate(inst, y), y, x_star, args.theta, args.c)
    lines = ["index,weight"]
    lines.extend(f"{k},{_fmt(v)}" for k, v in enumerate(w.values))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_diagnose(args) -> int:
    inst, y, x_star, _ = _instance_from_args(args)
    if x_star is None:
        raise _UsageError("diagnose needs x_star (generated instances have it)")
    if args.rip_s is not None and not 1 <= args.rip_s <= inst.p:
        raise ParameterError("rip_s", f"must lie in [1, p = {inst.p}]", args.rip_s)
    pair = surrogate(inst, y)
    w = weights(args.kind, inst, pair, y, x_star, args.theta, args.c)
    theta = default_theta(inst) if args.theta is None else args.theta
    report = assumption_report(
        pair, x_star, w, gamma=args.gamma, theta_used=theta, rip_s=args.rip_s
    )
    _emit(report.to_text(), args.out)
    return 0


def _cmd_experiment(args) -> int:
    mapping: dict[str, str] = {}
    if args.config:
        with open(args.config) as handle:
            mapping = parse_config_text(handle.read())
    mapping = apply_overrides(mapping, args.set or [])
    if args.seed is not None:
        mapping["master_seed"] = str(check_seed(args.seed))
    elif "master_seed" not in mapping:
        mapping["master_seed"] = str(_env_seed())
    try:
        cfg = experiment_config_from_mapping(mapping)
    except (ValueError, TypeError) as exc:
        raise _UsageError(str(exc)) from exc
    if args.dump_config:
        with open(args.dump_config, "w") as handle:
            handle.write(format_experiment_config(cfg))
    if not (cfg.m_grid or cfg.p_grid):
        raise _UsageError("config needs m_grid or p_grid")
    sweep = run_mse_vs_m if cfg.m_grid else run_mse_vs_p
    _emit(rows_to_csv(sweep(cfg, threads=args.threads)), args.out)
    return 0


def _cmd_concentration_test(args) -> int:
    if args.n < 1:
        raise ParameterError("n", "must be >= 1", args.n)
    rng = trial_rng(_resolve_seed(args.seed))
    r = np.ones(args.n)
    intensity = np.full(args.n, args.intensity)
    report = tail_coverage_test(r, intensity, args.theta, args.trials, rng)
    lines = [
        f"n_trials = {report.n_trials}",
        f"theta = {_fmt(report.theta)}",
        f"bernstein_bound = {_fmt(report.bernstein)}",
        f"failure_rate_bernstein = {_fmt(report.failure_rate_bernstein)}",
        f"failure_rate_empirical = {_fmt(report.failure_rate_empirical)}",
        f"failure_rate_envelope = {_fmt(report.failure_rate_envelope)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlasso",
        description="Weighted LASSO estimators for sparse Poisson inverse problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance and report errors")
    _add_instance_args(p_solve)
    p_solve.add_argument("--gamma", type=float, default=4.0)
    p_solve.add_argument("--weights", default="nonconstant", help="comma list of kinds")
    p_solve.add_argument("--theta", type=float, default=None)
    p_solve.add_argument("--c", type=float, default=1.0)
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_weights = sub.add_parser("weights", help="emit a weight vector as CSV")
    _add_instance_args(p_weights)
    p_weights.add_argument("--kind", choices=WEIGHT_KINDS, default="nonconstant")
    p_weights.add_argument("--theta", type=float, default=None)
    p_weights.add_argument("--c", type=float, default=1.0)
    p_weights.add_argument("--out", default=None)
    p_weights.set_defaults(func=_cmd_weights)

    p_diag = sub.add_parser("diagnose", help="check assumptions on one instance")
    _add_instance_args(p_diag)
    p_diag.add_argument("--kind", choices=WEIGHT_KINDS, default="nonconstant")
    p_diag.add_argument("--gamma", type=float, default=4.0)
    p_diag.add_argument("--theta", type=float, default=None)
    p_diag.add_argument("--c", type=float, default=1.0)
    p_diag.add_argument("--rip-s", type=int, default=None)
    p_diag.add_argument("--out", default=None)
    p_diag.set_defaults(func=_cmd_diagnose)

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo sweep to CSV")
    p_exp.add_argument("--config", help="flat key = value config file")
    p_exp.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--threads", type=int, default=0, help="0 = all cores")
    p_exp.add_argument("--out", default=None)
    p_exp.add_argument("--dump-config", default=None)
    p_exp.set_defaults(func=_cmd_experiment)

    p_conc = sub.add_parser("concentration-test", help="Monte Carlo tail coverage")
    p_conc.add_argument("--n", type=int, default=50)
    p_conc.add_argument("--intensity", type=float, default=2.0)
    p_conc.add_argument("--theta", type=float, default=5.0)
    p_conc.add_argument("--trials", type=int, default=100_000)
    p_conc.add_argument("--seed", type=int, default=None)
    p_conc.add_argument("--out", default=None)
    p_conc.set_defaults(func=_cmd_concentration_test)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if getattr(args, "theta", None) is not None:  # whatever the weight kind reads
            check_theta(args.theta)
        return args.func(args)
    except (_UsageError, WeightKindError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParameterError as exc:
        # config keys fail as usage errors first, so this names a flag (or _FLAG_OF's)
        flag = _FLAG_OF.get(exc.name, exc.name)
        print(f"error: --{flag} {exc.why}, got {exc.value}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary: report and set exit code
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
