"""Config validation and serialization round-trips."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipsearch import ArgumentError, DialogueContext, RangeError, StrategyConfig, generate, validate_config


class TestValidateConfig:
    def test_settings_defaults_are_valid(self):
        cfg = StrategyConfig(alpha=0.6, m=6)
        assert validate_config(cfg, 64) is cfg

    def test_boundary_values_legal(self):
        cfg = StrategyConfig(alpha=1.0, m=1, bootstrap_k=2)
        assert validate_config(cfg, 2) is cfg

    def test_m_larger_than_vocab(self):
        with pytest.raises(RangeError) as exc:
            validate_config(StrategyConfig(m=100), 64)
        assert exc.value.field == "m"
        assert str(exc.value).startswith("m")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("strategy", "magic"),
            ("alpha", -0.1),
            ("alpha", 1.5),
            ("beta", 2.0),
            ("penalty_form", "eq7"),
            ("m", 0),
            ("bootstrap_n", -1),
            ("bootstrap_strategy", "beam"),
            ("bootstrap_k", 0),
            ("bootstrap_p", 0.0),
            ("bootstrap_p", 1.5),
            ("beam_width", 0),
            ("max_new_tokens", 0),
            ("seed", -1),
            ("seed", 2**64),
            ("strict_isotropy", "yes"),
        ],
    )
    def test_each_bound_names_its_field(self, field, value):
        cfg = StrategyConfig(**{field: value})
        with pytest.raises(RangeError) as exc:
            validate_config(cfg, 64)
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "field",
        ["alpha", "beta", "m", "bootstrap_n", "bootstrap_k", "bootstrap_p",
         "beam_width", "max_new_tokens", "seed"],
    )
    def test_boolean_is_not_a_number(self, field):
        # True would pass as the int 1: beam would silently run at width 1.
        cfg = StrategyConfig.from_json(json.dumps({field: True}))
        with pytest.raises(RangeError) as exc:
            validate_config(cfg, 64)
        assert exc.value.field == field

    def test_bootstrap_k_capped_by_vocab(self):
        with pytest.raises(RangeError) as exc:
            validate_config(StrategyConfig(m=4, bootstrap_k=7), 4)
        assert exc.value.field == "bootstrap_k"


config_strategy = st.builds(
    StrategyConfig,
    strategy=st.sampled_from(["greedy", "beam", "topk", "nucleus", "contrastive", "ips"]),
    alpha=st.floats(0, 1),
    beta=st.floats(0, 1),
    penalty_form=st.sampled_from(["eq5", "beta"]),
    m=st.integers(1, 64),
    bootstrap_n=st.integers(0, 5),
    bootstrap_strategy=st.sampled_from(["topk", "nucleus", "greedy"]),
    bootstrap_k=st.integers(1, 64),
    bootstrap_p=st.floats(0.01, 1),
    beam_width=st.integers(1, 8),
    max_new_tokens=st.integers(1, 128),
    seed=st.integers(0, 2**64 - 1),
    strict_isotropy=st.booleans(),
)


class TestConfigRoundTrip:
    @given(config_strategy)
    @settings(max_examples=100)
    def test_json_round_trip_is_field_equal(self, cfg):
        assert StrategyConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ArgumentError, match="frobnicate"):
            StrategyConfig.from_dict({"frobnicate": 1})

    def test_non_object_rejected(self):
        with pytest.raises(ArgumentError):
            StrategyConfig.from_json("[1, 2]")


class TestDialogueContext:
    @pytest.mark.parametrize("bad", [True, False, np.True_, 1.0, -1, np.int64(-1), "1", None], ids=repr)
    def test_a_token_is_an_integer_not_a_bool(self, bad):
        with pytest.raises(ArgumentError, match="utterance 1 contains a non-token value"):
            DialogueContext([[3], [bad, 2]]).validate()

    @pytest.mark.parametrize("bad", [7, None, {1: 2}, np.array([1, 2]), "12"], ids=repr)
    def test_an_utterance_is_a_list_or_tuple(self, bad):
        with pytest.raises(ArgumentError, match="utterance 1 is not a list of token ids"):
            DialogueContext([[3], bad]).validate()
        assert DialogueContext([[3], (4, 5)]).validate()

    def test_a_context_has_an_utterance(self):
        with pytest.raises(ArgumentError, match="must contain at least one utterance"):
            DialogueContext([]).validate()

    def test_numpy_integers_decode_as_ints(self, tiny_backend):
        cfg = StrategyConfig(strategy="ips", max_new_tokens=6, seed=1)
        ctx = DialogueContext([[np.int64(3), np.int32(5)], [np.uint8(7)]])
        want = generate(tiny_backend, DialogueContext([[3, 5], [7]]), cfg)
        got = generate(tiny_backend, ctx.validate(), cfg)
        assert got.tokens == want.tokens
        assert got.session.tokens == want.session.tokens
