"""Span tracing around the wlasso layers, installed only for a traced run.

The benchmark never edits the package.  For a traced run it replaces each
target function with a timing wrapper under every name a caller can look it
up by: modules import functions by name, so `wlasso.solver.cyclic_convolve`
and `wlasso.model.cyclic_convolve` are separate attributes holding the same
object, and both must be patched.  `restore()` puts every original object
back.  Spans live in memory and are written out once the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

PACKAGE = "wlasso"

# Called once per coordinate per sweep; a wrapper there would cost more than
# the work it times and distort every solver number.
NEVER_WRAP = frozenset({"solver.soft_threshold"})


def _run_trial_key(signature, args, kwargs):
    """(point, trial index): the first two arguments, however they are passed."""
    values = list(signature.bind(*args, **kwargs).arguments.values())
    return (values[0], values[1])


def _solve_info(result):
    return {
        "iterations": getattr(result, "iterations", None),
        "converged": getattr(result, "converged", None),
        "kkt": getattr(result, "kkt_residual", None),
    }


# span name -> (module, attribute).  Span names are the metric prefixes.
TARGETS = {
    "model.cyclic_convolve": ("wlasso.model", "cyclic_convolve"),
    "model.cyclic_correlate": ("wlasso.model", "cyclic_correlate"),
    "model.sample_poisson": ("wlasso.model", "sample_poisson"),
    "convolution.sample_parents": ("wlasso.convolution", "sample_parents"),
    "convolution.surrogate_convolution": ("wlasso.convolution", "surrogate_convolution"),
    "convolution.constant_weights": ("wlasso.convolution", "constant_weights"),
    "convolution.nonconstant_weights": ("wlasso.convolution", "nonconstant_weights"),
    "bernoulli.sample_bernoulli_matrix": ("wlasso.bernoulli", "sample_bernoulli_matrix"),
    "bernoulli.surrogate_bernoulli": ("wlasso.bernoulli", "surrogate_bernoulli"),
    "bernoulli.constant_weights": ("wlasso.bernoulli", "constant_weights"),
    "bernoulli.nonconstant_weights": ("wlasso.bernoulli", "nonconstant_weights"),
    "bernoulli.max_pair_weight": ("wlasso.bernoulli", "max_pair_weight"),
    "solver.weighted_lasso": ("wlasso.solver", "weighted_lasso"),
    "solver.two_step": ("wlasso.solver", "two_step"),
    "solver.oracle_least_squares": ("wlasso.solver", "oracle_least_squares"),
    "diagnostics.weights_cover": ("wlasso.diagnostics", "weights_cover"),
    "experiments.run_trial": ("wlasso.experiments", "run_trial"),
    "experiments.tune_gamma": ("wlasso.experiments", "tune_gamma"),
    "experiments.run_point": ("wlasso.experiments", "run_point"),
    "experiments.run_mse_vs_m": ("wlasso.experiments", "run_mse_vs_m"),
    "experiments.run_mse_vs_p": ("wlasso.experiments", "run_mse_vs_p"),
    "cli.main": ("wlasso.cli", "main"),
}

# span name -> hook(signature, args, kwargs) giving the span's key
KEY_HOOKS = {"experiments.run_trial": _run_trial_key}
# span name -> hook(result) giving extra span fields
RESULT_HOOKS = {"solver.weighted_lasso": _solve_info}


class Tracer:
    """Records spans (name, start, end, parent, unit, info) while installed."""

    def __init__(self):
        self.spans: list = []
        self.missing: set[str] = set()
        self.recording = False
        self.unit = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, (module_name, attr) in TARGETS.items():
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original)
            for holder in _package_modules():
                for alias, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, alias, original))
                        setattr(holder, alias, wrapper)

    def restore(self) -> None:
        while self._patched:
            holder, alias, original = self._patched.pop()
            setattr(holder, alias, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, name, fn):
        key_hook = KEY_HOOKS.get(name)
        result_hook = RESULT_HOOKS.get(name)
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature, key_hook = None, None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            info = {}
            if key_hook is not None:
                try:
                    info["key"] = key_hook(signature, args, kwargs)
                except (TypeError, IndexError):
                    pass
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.unit, info)
            if result_hook is not None:
                info.update(result_hook(result))
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, unit, info in self.spans:
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "unit": unit,
                    "info": {k: v for k, v in info.items() if k != "key"},
                }
                handle.write(json.dumps(record) + "\n")


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def summarize(spans) -> dict:
    """Per span name: calls, busy seconds (inclusive) and self seconds.

    Spans come from one thread, so a span's children never overlap and the
    part of it they cover is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return out


def _minus(first, *rest):
    if first is None or any(v is None for v in rest):
        return None
    return first - sum(rest)


def layer_metrics(tracer: Tracer, units: int) -> dict:
    """Per-layer numbers of one traced phase, per unit of work.

    A value is None when a function it depends on was not found, so a renamed
    or removed layer is reported as missing instead of as zero work.
    """
    summary = summarize(tracer.spans)

    def total(name, field):
        if name in tracer.missing:
            return None
        return summary.get(name, {}).get(field, 0)

    def per_unit(value):
        return None if value is None else value / units

    out = {}
    for name in TARGETS:
        for field in ("calls", "busy_s", "self_s"):
            out[f"{name}.{field}"] = per_unit(total(name, field))

    solves = [s[5] for s in tracer.spans if s[0] == "solver.weighted_lasso"]
    iterations = [info.get("iterations") for info in solves]
    if "solver.weighted_lasso" in tracer.missing or None in iterations:
        out.update(dict.fromkeys(
            ("solver.sweeps", "solver.ms_per_sweep", "solver.nonconverged", "solver.kkt_max")
        ))
    else:
        sweeps = sum(iterations)
        busy = total("solver.weighted_lasso", "busy_s")
        out["solver.sweeps"] = sweeps / units
        out["solver.ms_per_sweep"] = 1000.0 * busy / sweeps if sweeps else 0.0
        out["solver.nonconverged"] = sum(i.get("converged") is False for i in solves) / units
        out["solver.kkt_max"] = max((float(i.get("kkt") or 0.0) for i in solves), default=0.0)

    # distinct (unit, point, trial index) over run_trial calls
    keys = [(s[4], s[5].get("key")) for s in tracer.spans if s[0] == "experiments.run_trial"]
    try:
        reuse = len(set(keys)) / len(keys) if keys else 0.0
    except TypeError:  # an unhashable point type
        reuse = None
    if "experiments.run_trial" in tracer.missing or any(k is None for _, k in keys):
        reuse = None
    out["experiments.draw_reuse_ratio"] = reuse
    out["experiments.self_s"] = per_unit(_minus(
        total("experiments.run_point", "busy_s"), total("experiments.run_trial", "busy_s")
    ))
    out["cli.self_s"] = per_unit(_minus(
        total("cli.main", "busy_s"),
        total("experiments.run_mse_vs_m", "busy_s"),
        total("experiments.run_mse_vs_p", "busy_s"),
    ))
    return out
