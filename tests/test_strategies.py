"""Step rules, beam search, contrastive and isotropic-proximal steps, generate()."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipsearch import (
    BackendInfo,
    DialogueContext,
    RangeError,
    Rng,
    ScriptedBackend,
    StepOutput,
    StrategyConfig,
    beam_search,
    encode_context,
    generate,
    greedy_step,
    nucleus_set,
    nucleus_step,
    topk_set,
    topk_step,
)
from ipsearch.core import STRATEGIES

from conftest import CountingBackend, random_scripted
from oracles import o_argmax_low_id, o_degeneration_penalty, o_enumerate_sequences, o_top_m


class TestGreedyStep:
    def test_argmax(self):
        assert greedy_step([0.1, 0.7, 0.2]) == 1

    def test_tie_breaks_low(self):
        assert greedy_step([0.5, 0.5]) == 0

    def test_uniform_returns_zero(self):
        assert greedy_step([0.25, 0.25, 0.25, 0.25]) == 0


class TestTopkStep:
    def test_k_one_is_greedy(self):
        probs = [0.1, 0.7, 0.2]
        assert topk_step(probs, 1, Rng(0)) == greedy_step(probs)

    def test_fixed_seed_reproducible(self):
        probs = [0.3, 0.25, 0.25, 0.2]
        assert topk_step(probs, 4, Rng(9)) == topk_step(probs, 4, Rng(9))

    def test_excluded_mass_never_sampled(self):
        probs = [0.5, 0.3, 0.2]
        rng = Rng(123)
        draws = {topk_step(probs, 2, rng) for _ in range(10_000)}
        assert 2 not in draws
        assert draws == {0, 1}

    def test_bad_k(self):
        with pytest.raises(RangeError):
            topk_step([0.5, 0.5], 3, Rng(0))
        with pytest.raises(RangeError):
            topk_step([0.5, 0.5], 0, Rng(0))

    def test_set_tie_breaks_low_first(self):
        assert topk_set([0.4, 0.3, 0.3], 2) == [0, 1]


class TestNucleusStep:
    def test_whole_mass_nucleus(self):
        assert nucleus_set([0.6, 0.3, 0.1], 1.0) == [0, 1, 2]

    def test_tight_nucleus(self):
        assert nucleus_set([0.6, 0.3, 0.1], 0.5) == [0]
        for _ in range(20):
            assert nucleus_step([0.6, 0.3, 0.1], 0.5, Rng(7)) == 0

    def test_minimal_nucleus_just_past_top(self):
        assert nucleus_set([0.6, 0.3, 0.1], 0.61) == [0, 1]

    def test_bad_p(self):
        with pytest.raises(RangeError):
            nucleus_step([1.0, 0.0], 0.0, Rng(0))
        with pytest.raises(RangeError):
            nucleus_step([1.0, 0.0], 1.5, Rng(0))


def path_logprob(backend, enc, tokens):
    lp = 0.0
    prefix = list(enc.tokens)
    for t in tokens:
        p = float(backend.forward(prefix).probs[t])
        lp += math.log(p) if p > 0 else -math.inf
        prefix.append(t)
    return lp


class TestBeamSearch:
    def test_width_one_equals_greedy_loop(self, tiny_backend):
        ctx = DialogueContext([[5, 6], [7, 8]])
        beam = generate(tiny_backend, ctx, StrategyConfig(strategy="beam", beam_width=1, max_new_tokens=5))
        greedy = generate(tiny_backend, ctx, StrategyConfig(strategy="greedy", max_new_tokens=5))
        assert beam.tokens == greedy.tokens

    def test_dominant_path_is_returned(self):
        # one chain carries 0.9 at every step: 0, then 1, then EOU (= 2)
        info = BackendInfo(vocab_size=3, hidden_dim=2, eou_token_id=2)
        ctx = DialogueContext([[1]])
        chain = {(): 0, (0,): 1, (0, 1): 2}
        table = {}
        suffixes = [()]
        for _ in range(3):
            suffixes += [
                s + (t,)
                for s in suffixes
                if len(s) < 3 and (not s or s[-1] != 2)
                for t in range(3)
            ]
            suffixes = list(dict.fromkeys(suffixes))
        for s in suffixes:
            probs = np.full(3, 0.05)
            probs[chain.get(s, 0)] = 0.9
            table[(1, 2) + s] = StepOutput(
                probs=probs,
                hidden_last=np.array([1.0, float(len(s))]),
                hidden_all=[np.array([1.0, 1.0])] * (2 + len(s)) if not s else None,
            )
        backend = ScriptedBackend(info, table)
        res = generate(backend, ctx, StrategyConfig(strategy="beam", beam_width=3, max_new_tokens=3, m=3, bootstrap_k=3))
        assert res.tokens == [0, 1, 2]
        assert res.stop_reason == "eou"

    def test_wide_beam_matches_exhaustive_enumeration(self):
        backend, ctx = random_scripted(seed=5)
        enc = encode_context(ctx, backend.info.eou_token_id)
        res = beam_search(backend, enc, width=64, max_new_tokens=3)
        all_seqs = o_enumerate_sequences(
            lambda prefix: backend.forward(prefix).probs,
            list(enc.tokens),
            backend.info.vocab_size,
            backend.info.eou_token_id,
            3,
        )
        best = min(all_seqs, key=lambda s: (-s[1], s[0]))
        assert tuple(res.tokens) == best[0]

    def test_wider_beam_never_scores_worse(self):
        backend, ctx = random_scripted(seed=17)
        enc = encode_context(ctx, backend.info.eou_token_id)
        scores = []
        for width in (1, 2, 4, 8):
            res = beam_search(backend, enc, width=width, max_new_tokens=3)
            scores.append(path_logprob(backend, enc, res.tokens))
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_bad_width(self):
        backend, ctx = random_scripted(seed=1)
        enc = encode_context(ctx, backend.info.eou_token_id)
        with pytest.raises(RangeError):
            beam_search(backend, enc, width=0, max_new_tokens=2)


def contrastive_fixture():
    """Candidate A (token 1) duplicates a prefix hidden; B (token 2) is orthogonal."""
    info = BackendInfo(vocab_size=4, hidden_dim=3, eou_token_id=3)
    ctx = DialogueContext([[0]])
    table = {
        (0, 3): StepOutput(
            probs=np.array([0.07, 0.5, 0.4, 0.03]),
            hidden_last=np.array([0.0, 1.0, 0.0]),
            hidden_all=[np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])],
        ),
        (0, 3, 1): StepOutput(probs=np.full(4, 0.25), hidden_last=np.array([1.0, 0.0, 0.0])),
        (0, 3, 2): StepOutput(probs=np.full(4, 0.25), hidden_last=np.array([0.0, 0.0, 1.0])),
    }
    return ScriptedBackend(info, table), ctx


def contrastive_first_token(k, alpha_cs):
    backend, ctx = contrastive_fixture()
    cfg = StrategyConfig(strategy="contrastive", m=k, alpha=alpha_cs, bootstrap_k=4, max_new_tokens=1)
    return generate(backend, ctx, cfg).tokens[0]


class TestContrastiveStep:
    def test_zero_penalty_weight_is_argmax(self):
        assert contrastive_first_token(k=2, alpha_cs=0.0) == 1

    def test_penalty_flips_choice(self):
        # scoreA = 0.4*0.5 - 0.6*1 = -0.4; scoreB = 0.4*0.4 - 0.6*0 = 0.16
        assert contrastive_first_token(k=2, alpha_cs=0.6) == 2

    def test_k_one_is_greedy_regardless_of_alpha(self):
        assert contrastive_first_token(k=1, alpha_cs=0.9) == 1


class TestIpsStep:
    def test_alpha_one_matches_greedy(self, tiny_backend):
        ctx = DialogueContext([[3, 4, 5]])
        enc = encode_context(ctx, 63)
        cfg = StrategyConfig(strategy="ips", alpha=1.0, bootstrap_n=0, m=6, max_new_tokens=1)
        record = generate(tiny_backend, ctx, cfg).per_step[0]
        token = record.token
        assert token == greedy_step(tiny_backend.forward(list(enc.tokens)).probs)
        assert record.token == token
        assert len(record.candidates) == 6

    def test_m_one_returns_top_token(self, tiny_backend):
        ctx = DialogueContext([[9, 10]])
        enc = encode_context(ctx, 63)
        cfg = StrategyConfig(strategy="ips", alpha=0.2, bootstrap_n=0, m=1, max_new_tokens=1)
        token = generate(tiny_backend, ctx, cfg).per_step[0].token
        assert token == greedy_step(tiny_backend.forward(list(enc.tokens)).probs)


class TestGenerate:
    def test_ips_alpha_one_degenerates_to_greedy(self, tiny_backend, contexts24):
        for ctx in contexts24[:4]:
            ips_cfg = StrategyConfig(strategy="ips", alpha=1.0, bootstrap_n=0, max_new_tokens=5)
            greedy_cfg = StrategyConfig(strategy="greedy", max_new_tokens=5)
            assert generate(tiny_backend, ctx, ips_cfg).tokens == generate(tiny_backend, ctx, greedy_cfg).tokens

    @pytest.mark.parametrize("strategy", ["greedy", "beam", "topk", "nucleus", "contrastive", "ips"])
    def test_same_seed_same_result(self, tiny_backend, strategy):
        ctx = DialogueContext([[5, 6], [7, 8, 9]])
        cfg = StrategyConfig(strategy=strategy, max_new_tokens=5, seed=11)
        a = generate(tiny_backend, ctx, cfg)
        b = generate(tiny_backend, ctx, cfg)
        assert a.tokens == b.tokens
        assert a.stop_reason == b.stop_reason
        assert [r.token for r in a.per_step] == [r.token for r in b.per_step]

    def test_eou_stop_is_recorded(self):
        from conftest import directional_scripted

        backend, ctx = directional_scripted()
        cfg = StrategyConfig(strategy="greedy", max_new_tokens=8, m=4, bootstrap_k=5)
        res = generate(backend, ctx, cfg)
        assert res.stop_reason == "eou"
        assert len(res.tokens) == 3
        assert res.tokens[-1] == backend.info.eou_token_id
        assert len(res.per_step) == len(res.tokens)

    def test_max_len_stop(self, tiny_backend):
        res = generate(tiny_backend, DialogueContext([[1]]), StrategyConfig(strategy="greedy", max_new_tokens=4))
        assert res.stop_reason == "max_len"
        assert len(res.tokens) == 4

    def test_bootstrap_draws_stay_in_topk_support(self, tiny_backend):
        ctx = DialogueContext([[12, 13], [14]])
        enc = encode_context(ctx, 63)
        for seed in (0, 1, 2):
            cfg = StrategyConfig(strategy="ips", bootstrap_n=2, bootstrap_k=7, max_new_tokens=4, seed=seed)
            res = generate(tiny_backend, ctx, cfg)
            prefix = list(enc.tokens)
            for token in res.tokens[:2]:
                assert token in topk_set(tiny_backend.forward(prefix).probs, 7)
                prefix.append(token)

    def test_trace_fields_present_for_ips_steps(self, tiny_backend):
        cfg = StrategyConfig(strategy="ips", bootstrap_n=1, max_new_tokens=3, seed=5)
        res = generate(tiny_backend, DialogueContext([[20, 21]]), cfg)
        bootstrap, later = res.per_step[0], res.per_step[1]
        assert bootstrap.p_value is None and bootstrap.candidates is None
        assert later.p_value is not None and later.i_value is not None
        assert later.score is not None and later.candidates

    @pytest.mark.parametrize("strategy", ["greedy", "topk", "nucleus", "contrastive", "ips"])
    def test_reply_of_n_tokens_makes_n_forwards(self, tiny_backend, strategy):
        # The context pass gives the first step's distribution, and no
        # forward runs after the last token.
        backend = CountingBackend(tiny_backend)
        cfg = StrategyConfig(strategy=strategy, max_new_tokens=6, seed=3)
        res = generate(backend, DialogueContext([[1]]), cfg)
        assert backend.forward_calls == len(res.tokens)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_utterance_reps_are_context_eou_rows(self, tiny_backend, strategy):
        ctx = DialogueContext([[5, 6], [7, 8, 9]])
        enc = encode_context(ctx, 63)
        res = generate(tiny_backend, ctx, StrategyConfig(strategy=strategy, max_new_tokens=3, seed=4))
        full = tiny_backend.forward(list(enc.tokens), want_all_hidden=True).hidden_all
        assert len(res.utterance_reps) == len(enc.eou_positions) == 2
        for rep, pos in zip(res.utterance_reps, enc.eou_positions):
            assert rep.tobytes() == full[pos].tobytes()


def replay_contrastive_run(backend, ctx, cfg, result):
    """Re-derive every contrastive choice with one from-scratch forward per prefix."""
    enc = encode_context(ctx, backend.info.eou_token_id)
    ctx_hiddens = list(backend.forward(list(enc.tokens), want_all_hidden=True).hidden_all)
    prefix = list(enc.tokens)
    gen_hiddens: list = []
    for step_idx, token in enumerate(result.tokens):
        probs = backend.forward(prefix).probs
        top = o_top_m(probs, cfg.m)
        assert token in top, f"step {step_idx + 1}: {token} outside top-{cfg.m}"
        scored = []
        for tok in sorted(top):
            hid = backend.forward(prefix + [tok]).hidden_last
            penalty = o_degeneration_penalty(hid, ctx_hiddens + gen_hiddens)
            scored.append((tok, (1.0 - cfg.alpha) * float(probs[tok]) - cfg.alpha * penalty))
        assert o_argmax_low_id(scored) == token, f"step {step_idx + 1}: not score-maximal"
        gen_hiddens.append(backend.forward(prefix + [token]).hidden_last)
        prefix.append(token)


@given(
    utterances=st.lists(
        st.lists(st.integers(0, 62), min_size=1, max_size=5), min_size=1, max_size=3
    ),
    alpha=st.floats(0.0, 1.0),
    m=st.integers(1, 8),
    max_new_tokens=st.integers(1, 6),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_contrastive_choices_replay_from_scratch(tiny_backend, utterances, alpha, m, max_new_tokens):
    ctx = DialogueContext(utterances)
    cfg = StrategyConfig(strategy="contrastive", alpha=alpha, m=m, max_new_tokens=max_new_tokens)
    replay_contrastive_run(tiny_backend, ctx, cfg, generate(tiny_backend, ctx, cfg))
