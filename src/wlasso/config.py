"""Flat `key = value` config files: # comments, comma-separated lists.

The schema lives on ExperimentConfig: each key's type is its field's
annotation, and the dump lists the fields in declaration order.
"""
from __future__ import annotations

from dataclasses import fields
from typing import Iterable, get_args, get_origin

from .experiments import CONFIG_TYPES, ExperimentConfig


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _split_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def coerce_experiment_value(key: str, raw: str):
    """raw as the type of ExperimentConfig's field key; a tuple splits on commas."""
    kind = CONFIG_TYPES.get(key)
    if kind is None:
        raise ValueError(f"unknown config key {key!r}")
    if get_origin(kind) is tuple:
        return tuple(get_args(kind)[0](v) for v in _split_list(raw))
    return _parse_bool(raw) if kind is bool else kind(raw)


def experiment_config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    kwargs = {key: coerce_experiment_value(key, raw) for key, raw in mapping.items()}
    return ExperimentConfig(**kwargs)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_experiment_config(cfg: ExperimentConfig) -> str:
    """Canonical dump; parsing it back yields an equal config."""
    lines = []
    for f in fields(cfg):
        lines.append(f"{f.name} = {_format_value(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def apply_overrides(
    mapping: dict[str, str], overrides: Iterable[str]
) -> dict[str, str]:
    out = dict(mapping)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out
