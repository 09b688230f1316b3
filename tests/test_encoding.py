"""Context encoding, utterance representations, and the trivial tokenizers."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipsearch import (
    ArgumentError,
    BackendInfo,
    DialogueContext,
    ScriptedBackend,
    StepOutput,
    StrategyConfig,
    Tokenizer,
    encode_context,
    generate,
)


class TestEncodeContext:
    def test_single_utterance(self):
        enc = encode_context(DialogueContext([[5, 6]]), eou=2)
        assert list(enc.tokens) == [5, 6, 2]
        assert list(enc.eou_positions) == [2]
        assert enc.n_utterances == 1

    def test_two_utterances(self):
        enc = encode_context(DialogueContext([[5], [7, 8]]), eou=2)
        assert list(enc.tokens) == [5, 2, 7, 8, 2]
        assert list(enc.eou_positions) == [1, 4]

    def test_eou_inside_utterance_rejected(self):
        with pytest.raises(ArgumentError):
            encode_context(DialogueContext([[5, 2]]), eou=2)

    def test_empty_utterance_rejected(self):
        with pytest.raises(ArgumentError):
            encode_context(DialogueContext([[5], []]), eou=2)

    @given(
        st.lists(
            st.lists(st.integers(0, 30).filter(lambda t: t != 31), min_size=1, max_size=6),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=100)
    def test_round_trip_recovers_context(self, utterances):
        eou = 31
        enc = encode_context(DialogueContext(utterances), eou)
        assert enc.tokens[-1] == eou
        assert sum(1 for t in enc.tokens if t == eou) == len(utterances)
        # split the stream back at the recorded separator positions
        recovered, start = [], 0
        for pos in enc.eou_positions:
            assert enc.tokens[pos] == eou
            recovered.append(list(enc.tokens[start:pos]))
            start = pos + 1
        assert recovered == utterances


def utterance_reps(backend, ctx):
    """Utterance representations as ``generate`` reports them for a one-token reply."""
    cfg = StrategyConfig(strategy="greedy", m=2, bootstrap_k=2, max_new_tokens=1)
    return generate(backend, ctx, cfg).utterance_reps


class TestUtteranceRepresentations:
    def test_single_utterance_is_final_position(self):
        info = BackendInfo(vocab_size=4, hidden_dim=2, eou_token_id=3)
        hall = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        backend = ScriptedBackend(
            info,
            {(1, 3): StepOutput(probs=np.full(4, 0.25), hidden_last=hall[-1], hidden_all=hall)},
        )
        reps = utterance_reps(backend, DialogueContext([[1]]))
        assert len(reps) == 1
        np.testing.assert_array_equal(reps[0], [0.0, 1.0])

    def test_three_utterances_pick_basis_vectors(self):
        info = BackendInfo(vocab_size=5, hidden_dim=3, eou_token_id=4)
        ctx = DialogueContext([[0], [1], [2]])
        enc = encode_context(ctx, eou=4)
        assert list(enc.tokens) == [0, 4, 1, 4, 2, 4]
        basis = np.eye(3)
        hall = [basis[i % 3] for i in range(6)]
        backend = ScriptedBackend(
            info,
            {tuple(enc.tokens): StepOutput(probs=np.full(5, 0.2), hidden_last=hall[-1], hidden_all=hall)},
        )
        reps = utterance_reps(backend, ctx)
        # EOU positions 1, 3, 5 hold basis vectors 1, 0, 2
        np.testing.assert_array_equal(reps[0], basis[1])
        np.testing.assert_array_equal(reps[1], basis[0])
        np.testing.assert_array_equal(reps[2], basis[2])

    def test_tiny_matches_manual_indexing(self, tiny_backend):
        ctx = DialogueContext([[5, 6], [7]])
        enc = encode_context(ctx, eou=63)
        reps = utterance_reps(tiny_backend, ctx)
        assert len(reps) == 2
        full = tiny_backend.forward(list(enc.tokens), want_all_hidden=True)
        np.testing.assert_array_equal(reps[1], full.hidden_all[-1])
        np.testing.assert_array_equal(reps[0], full.hidden_all[2])


class TestTokenizer:
    def test_passthrough_accepts_ints_only(self):
        tok = Tokenizer()
        assert tok.encode([1, 2, 3]) == [1, 2, 3]
        with pytest.raises(ArgumentError):
            tok.encode("hello there")
        assert tok.decode([1, 2]) is None

    def test_whitespace_maps_unknown_to_unk(self):
        tok = Tokenizer(mode="whitespace", vocab={"hi": 1, "there": 2}, unk_id=0)
        assert tok.encode("hi there stranger") == [1, 2, 0]

    def test_whitespace_requires_vocab(self):
        with pytest.raises(ArgumentError):
            Tokenizer(mode="whitespace")

    def test_decode_inverts_known_words(self):
        tok = Tokenizer(mode="whitespace", vocab={"hi": 1, "there": 2, "<unk>": 0}, unk_id=0)
        assert tok.decode([1, 2]) == "hi there"
        assert tok.decode([1, 9]) == "hi <9>"
