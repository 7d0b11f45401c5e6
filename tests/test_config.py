"""Flat config files: parsing, coercion, round-trips, overrides."""

import pytest

from wlasso.config import (
    apply_overrides,
    coerce_experiment_value,
    experiment_config_from_mapping,
    format_experiment_config,
    parse_config_text,
)
from wlasso.experiments import ExperimentConfig


class TestParse:
    def test_comments_and_blank_lines(self):
        text = "\n# full-line comment\np = 100  # trailing comment\n\nmodel = convolution\n"
        assert parse_config_text(text) == {"p": "100", "model": "convolution"}

    def test_missing_equals_reports_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_config_text("p = 1\n\nbogus\n")

    def test_empty_key_reports_line_number(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("= 5\n")

    def test_last_assignment_wins(self):
        assert parse_config_text("p = 1\np = 2\n") == {"p": "2"}

    def test_value_may_contain_equals(self):
        assert parse_config_text("model = a=b\n") == {"model": "a=b"}


class TestCoercion:
    def test_scalars(self):
        assert coerce_experiment_value("p", "100") == 100
        assert coerce_experiment_value("q", "0.25") == 0.25
        assert coerce_experiment_value("model", "bernoulli") == "bernoulli"
        assert coerce_experiment_value("noiseless", "true") is True
        assert coerce_experiment_value("noiseless", "off") is False

    def test_lists(self):
        assert coerce_experiment_value("m_grid", "10, 20, 40") == (10, 20, 40)
        assert coerce_experiment_value("gamma_grid", "2.1,3") == (2.1, 3.0)
        assert coerce_experiment_value("estimators", "ls_oracle, lasso_two_step") == (
            "ls_oracle",
            "lasso_two_step",
        )
        assert coerce_experiment_value("p_grid", "") == ()

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            coerce_experiment_value("delta", "1")

    def test_bad_int(self):
        with pytest.raises(ValueError):
            coerce_experiment_value("p", "ten")

    def test_bad_bool(self):
        with pytest.raises(ValueError, match="not a boolean"):
            coerce_experiment_value("noiseless", "maybe")

    def test_mapping_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            experiment_config_from_mapping({"zeta": "1"})

    def test_mapping_builds_config(self):
        cfg = experiment_config_from_mapping(
            {"model": "convolution", "p": "40", "m_grid": "6,12", "trials": "3"}
        )
        assert cfg.p == 40
        assert cfg.m_grid == (6, 12)
        assert cfg.trials == 3


class TestRoundTrip:
    def test_default_config_round_trips(self):
        cfg = ExperimentConfig()
        text = format_experiment_config(cfg)
        again = experiment_config_from_mapping(parse_config_text(text))
        assert again == cfg

    def test_modified_config_round_trips(self):
        cfg = ExperimentConfig(
            model="bernoulli",
            p=64,
            n=700,
            q=0.3,
            p_grid=(64, 128),
            noiseless=True,
            gamma_grid=(2.5,),
            estimators=("ls_oracle", "lasso_two_step"),
            weight_kinds=("constant",),
            weight_c=0.5,
        )
        again = experiment_config_from_mapping(
            parse_config_text(format_experiment_config(cfg))
        )
        assert again == cfg

    def test_dump_lists_every_field(self):
        mapping = parse_config_text(format_experiment_config(ExperimentConfig()))
        from dataclasses import fields

        assert set(mapping) == {f.name for f in fields(ExperimentConfig)}


class TestOverrides:
    def test_later_entry_wins(self):
        out = apply_overrides({"p": "1"}, ["p=2", "s = 3"])
        assert out == {"p": "2", "s": "3"}

    def test_requires_equals_sign(self):
        with pytest.raises(ValueError, match="key=value"):
            apply_overrides({}, ["oops"])

    def test_input_mapping_not_mutated(self):
        base = {"p": "1"}
        apply_overrides(base, ["p=2"])
        assert base == {"p": "1"}
