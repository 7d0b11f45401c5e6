"""Command-line front end: solve | weights | diagnose | experiment | concentration-test.

Exit codes: 0 success, 1 usage error, 2 runtime error.  All randomness flows
from one seed (flag > config file > WLASSO_SEED env var > 0), which must be
>= 0; reruns with the same inputs produce byte-identical outputs.  No
subcommand mutates its inputs.  An --instance file's arrays become an
instance in sensing.from_arrays, so the command line knows no sensing model.
The score at the truth comes off the surrogate pair's Gram rows
(SurrogatePair.score), once per command and only where it is read: so
solve, weights and diagnose apply the design once, for the Poisson
intensity, and its adjoint at most once, for the pair's aty.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

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
from .model import check_seed, check_size, trial_rng
from .sensing import (
    MODELS,
    WEIGHT_KINDS,
    Draw,
    check_weight_kind,
    default_theta,
    draw,
    from_arrays,
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
    sub.add_argument("--theta", type=float, default=None)
    sub.add_argument("--c", type=float, default=1.0)
    sub.add_argument("--out", default=None)


_FILE_NDIM = {"counts": 1, "a": 2, "q": 0, "y": 1, "x_star": 1}  # an instance file's arrays


def _instance_field(data, key: str, ndim: int) -> np.ndarray:
    """data[key] as floats, if it is a finite number, vector or matrix."""
    try:
        value = np.asarray(data[key])
    except ValueError:  # an object array: np.load will not unpickle it, and it is refused below
        value = np.asarray(None)
    if value.dtype.kind not in "biuf" or value.ndim != ndim or not np.all(np.isfinite(value)):
        what = ("number", "vector", "matrix")[ndim]
        raise _UsageError(f"instance file: {key!r} must be a finite {what}")
    return value.astype(np.float64)


def _load_instance(path: str, q_flag: float) -> Draw:
    """The file's arrays, read by sensing.from_arrays.  A refusal names the file
    key (counts or a for the design's sizes), or the flag if the file lacks it."""
    with np.load(path) as data:
        arrays = {key: _instance_field(data, key, ndim)
                  for key, ndim in _FILE_NDIM.items() if key in data.files}
    try:
        return from_arrays(arrays, q_flag)
    except KeyError as exc:
        raise _UsageError(f"instance file needs {exc.args[0]}") from exc
    except ParameterError as exc:
        design = "counts" if "counts" in arrays else "a"
        key = design if exc.name in ("p", "m", "n") else exc.name
        if key not in arrays:
            raise
        name = repr(key) if key == exc.name else f"{key!r} ({exc.name})"
        raise _UsageError(f"instance file: {name} {exc.why}, got {exc.value}") from exc
    except ValueError as exc:
        raise _UsageError(f"instance file: {exc}") from exc


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
    """||x_hat - x*||^2 / ||x*||_1, or over 1 when x* = 0 (run_trial divides by target_l1)."""
    err = x_hat - x_star
    return _fmt(float(err @ err) / (float(np.abs(x_star).sum()) or 1.0))


def _cmd_solve(args) -> int:
    inst, y, x_star = _instance_from_args(args)
    kinds = list(dict.fromkeys(kind.strip() for kind in args.weights.split(",")))
    for kind in kinds:
        check_weight_kind(kind, x_star)
    check_gamma(args.gamma)  # a usage error before any work
    pair = surrogate(inst, y)
    deviation = None if x_star is None else pair.score(x_star)
    built = {kind: weights(kind, inst, y, deviation, args.theta, args.c) for kind in kinds}
    cells = [("ls_oracle", "none", 0.0)] if x_star is not None and x_star.any() else []
    cells += [(ESTIMATOR_OF[kind], kind, args.gamma) for kind in kinds]
    lines = []
    for (est, kind, _), result, x_hat in estimates(pair, x_star, built, cells):
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
    inst, y, x_star = _instance_from_args(args)
    check_weight_kind(args.kind, x_star)
    # only the oracle kind reads the pair, through its score at the truth
    deviation = surrogate(inst, y).score(x_star) if args.kind == "oracle" else None
    w = weights(args.kind, inst, y, deviation, args.theta, args.c)
    lines = ["index,weight"]
    lines.extend(f"{k},{_fmt(v)}" for k, v in enumerate(w.values))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_diagnose(args) -> int:
    inst, y, x_star = _instance_from_args(args)
    if x_star is None:
        raise _UsageError("diagnose needs x_star (generated instances have it)")
    if args.rip_s is not None and not 1 <= args.rip_s <= inst.p:
        raise ParameterError("rip_s", f"must lie in [1, p = {inst.p}]", args.rip_s)
    pair = surrogate(inst, y)
    deviation = pair.score(x_star)
    w = weights(args.kind, inst, y, deviation, args.theta, args.c)
    theta = default_theta(inst) if args.theta is None else args.theta
    report = assumption_report(pair, np.flatnonzero(x_star), deviation, w, gamma=args.gamma,
                               theta_used=theta, rip_s=args.rip_s)
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
    if not (cfg.m_grid or cfg.p_grid):
        raise _UsageError("config needs m_grid or p_grid")
    if args.dump_config:
        with open(args.dump_config, "w") as handle:
            handle.write(format_experiment_config(cfg))
    sweep = run_mse_vs_m if cfg.m_grid else run_mse_vs_p
    _emit(rows_to_csv(sweep(cfg, threads=args.threads)), args.out)
    return 0


def _cmd_concentration_test(args) -> int:
    if args.n < 1:
        raise ParameterError("n", "must be >= 1", args.n)
    check_size("n", args.n, args.n)
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
    p_solve.set_defaults(func=_cmd_solve)

    p_weights = sub.add_parser("weights", help="emit a weight vector as CSV")
    _add_instance_args(p_weights)
    p_weights.add_argument("--kind", choices=WEIGHT_KINDS, default="nonconstant")
    p_weights.set_defaults(func=_cmd_weights)

    p_diag = sub.add_parser("diagnose", help="check assumptions on one instance")
    _add_instance_args(p_diag)
    p_diag.add_argument("--kind", choices=WEIGHT_KINDS, default="nonconstant")
    p_diag.add_argument("--gamma", type=float, default=4.0)
    p_diag.add_argument("--rip-s", type=int, default=None)
    p_diag.set_defaults(func=_cmd_diagnose)

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo sweep to CSV")
    p_exp.add_argument("--config", help="flat key = value config file")
    p_exp.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument(
        "--threads", type=int, default=0,
        help="processes, at most one per grid point (0 = every usable core, 1 = in-process)")
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
