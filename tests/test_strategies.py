"""Step rules, beam search, contrastive and isotropic-proximal steps, generate()."""
from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipsearch import (
    ArgumentError,
    BackendInfo,
    CandidateScore,
    DialogueContext,
    RangeError,
    Rng,
    ScriptedBackend,
    StepOutput,
    StrategyConfig,
    TinyTransformer,
    beam_search,
    encode_context,
    generate,
    greedy_step,
    nucleus_set,
    nucleus_step,
    topk_set,
    topk_step,
)
from ipsearch import strategies
from ipsearch.core import STRATEGIES

from conftest import CountingBackend, random_scripted
from oracles import (
    o_argmax_low_id,
    o_beam_search,
    o_degeneration_penalty,
    o_enumerate_sequences,
    o_ips_score,
    o_isotropic_value,
    o_nucleus,
    o_nucleus_full_sort,
    o_proximal_value,
    o_response_representation,
    o_top_m,
    o_topk_full_sort,
)


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
        with pytest.raises(RangeError):  # a bool is not a count
            topk_step([0.5, 0.5], True, Rng(0))

    def test_set_tie_breaks_low_first(self):
        assert topk_set([0.4, 0.3, 0.3], 2) == [0, 1]

    def test_set_of_a_matrix_is_refused(self):
        with pytest.raises(ArgumentError, match=r"must be 1-D and non-empty, got shape \(2, 2\)"):
            topk_set([[0.5, 0.5], [0.5, 0.5]], 1)

    def test_set_with_fewer_non_nan_ids_than_k(self):
        # A NaN k-th value: the helper's first chunk is empty, so the set
        # comes from the full order, NaN ids last in id order.
        probs = np.full(10, np.nan)
        probs[[7, 2]] = [0.5, 0.25]
        assert topk_set(probs, 4) == o_topk_full_sort(probs, 4) == [7, 2, 0, 1]


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
        with pytest.raises(RangeError):  # a bool is not a mass
            nucleus_step([1.0, 0.0], True, Rng(0))


def test_sampled_draws_do_not_depend_on_the_builtin_sum(monkeypatch):
    """From Python 3.12 on, the built-in sum of floats compensates, where
    3.11's adds in sequence, and a draw near a boundary flips between the
    two. With math.fsum standing in for another summation, top-k and nucleus
    still draw what the running sum in sequence draws."""
    probs = [
        0.3097386864834335,
        0.06413485218610218,
        0.05493500761961036,
        0.023313347611971035,
        0.021571318249227967,
        0.01258201075347501,
    ]

    def draw(ids, total):
        u, running = Rng(0).uniform() * total, 0.0
        for i in ids:
            running += probs[i]
            if u < running:
                return i
        return ids[-1]

    ids = topk_set(probs, 6)
    assert ids == nucleus_set(probs, 1.0) == [0, 1, 2, 3, 4, 5]
    sequential = draw(ids, np.cumsum(probs)[-1])
    assert sequential != draw(ids, math.fsum(probs))  # the vector sits on a boundary
    monkeypatch.setattr("ipsearch.strategies.sum", math.fsum, raising=False)
    assert topk_step(probs, 6, Rng(0)) == nucleus_step(probs, 1.0, Rng(0)) == sequential


@given(
    weights=st.lists(st.integers(0, 3), min_size=1, max_size=40).filter(any),
    k=st.integers(1, 40),
    data=st.data(),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_selection_sets_match_oracles_under_ties(weights, k, data):
    # Few distinct integer weights, zeros included, make ties common; p is
    # drawn either freely or equal to a cumulative mass the nucleus reaches.
    probs = np.array(weights, dtype=float) / sum(weights)
    k = min(k, len(weights))
    assert topk_set(probs, k) == o_top_m(probs, k)
    reached = itertools.accumulate(float(probs[i]) for i in o_top_m(probs, len(weights)))
    p = data.draw(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True),
        st.sampled_from([c for c in reached if 0.0 < c <= 1.0]),
    ))
    assert nucleus_set(probs, p) == o_nucleus(probs, p)


@given(
    seed=st.integers(0, 2**32 - 1),
    vocab_size=st.one_of(st.integers(65, 5000), st.just(50257)),
    scale=st.floats(0.5, 8.0),
    decimals=st.sampled_from([None, 1, 0]),
    zeros=st.floats(0.0, 0.9),
    nans=st.integers(0, 3),
    shortfall=st.sampled_from([0.0, 2**-52, 1e-12]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_selection_beyond_the_first_chunk_matches_a_full_sort(
    seed, vocab_size, scale, decimals, zeros, nans, shortfall, data
):
    # Softmaxed logits, rounded so that ties are common, with a share of
    # zeros, a few NaN entries and a sum that may fall just under 1: the
    # nucleus then often reads past the helper's first chunk of 64 or more
    # ids, or through every chunk to the full vocabulary.
    rng = np.random.Generator(np.random.PCG64(seed))
    logits = rng.normal(0.0, scale, vocab_size)
    if decimals is not None:
        logits = np.round(logits, decimals)
    probs = np.exp(logits - logits.max())
    probs[rng.random(vocab_size) < zeros] = 0.0
    probs = probs / probs.sum() * (1.0 - shortfall)
    probs[rng.integers(0, vocab_size, nans)] = np.nan
    order = np.argsort(-probs, kind="stable")
    assert np.array_equal(np.concatenate(list(strategies._descending(probs))), order)
    # Unstable chunks (beam's walk): the same values in the same places.
    unstable = np.concatenate(list(strategies._descending(probs, None)))
    assert np.array_equal(np.sort(unstable), np.arange(vocab_size))
    assert np.array_equal(probs[unstable], probs[order], equal_nan=True)
    k = data.draw(st.integers(1, vocab_size), label="k")
    assert topk_set(probs, k) == o_topk_full_sort(probs, k)
    reached = np.cumsum(probs[np.argsort(-probs, kind="stable")])
    reached = reached[(reached > 0.0) & (reached <= 1.0)]
    p = data.draw(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True),
        st.just(1.0),
        st.sampled_from(reached.tolist() or [1.0]),
    ), label="p")
    assert nucleus_set(probs, p) == o_nucleus_full_sort(probs, p)


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

    @pytest.mark.parametrize("max_new_tokens", [0, -3, True, 1.5])
    def test_bad_max_new_tokens_is_refused_as_generate_refuses_it(self, max_new_tokens):
        backend, ctx = random_scripted(seed=1)
        enc = encode_context(ctx, backend.info.eou_token_id)
        cfg = StrategyConfig(strategy="beam", beam_width=2, max_new_tokens=max_new_tokens, m=3, bootstrap_k=3)
        messages = []
        for decode in (lambda: beam_search(backend, enc, 2, max_new_tokens), lambda: generate(backend, ctx, cfg)):
            with pytest.raises(RangeError) as exc:
                decode()
            messages.append(str(exc.value))
        assert messages == [f"max_new_tokens: must be an integer >= 1, got {max_new_tokens!r}"] * 2


class RecordingBackend(CountingBackend):
    """``CountingBackend`` that also logs each ``forward`` (prefix,
    want_all_hidden) and ``forward_candidates`` (prefix, candidates) call."""

    def __init__(self, inner):
        super().__init__(inner)
        self.log = []

    def forward(self, prefix, want_all_hidden=False):
        self.log.append(["forward", [int(t) for t in prefix], want_all_hidden])
        return super().forward(prefix, want_all_hidden)

    def forward_candidates(self, prefix, candidates):
        self.log.append(["forward_candidates", [int(t) for t in prefix], [int(c) for c in candidates]])
        return super().forward_candidates(prefix, candidates)


# sha256 of each strategy's call log in test_backend_call_log_is_pinned.
CALL_LOG_SHA256 = {
    "greedy": "ad394dab86dae48f10a20192b959f86e559eb2dadc971f48ced0e03af5097c8c",
    "beam": "d27023b9c8e867924c4ca39ddb41ad4377fae096eed991ea42df5f0715793bd4",
    "topk": "085c3391d5a3b890ede11c22d3a95c1b1d578ff8a14c77ff676099efb77a438d",
    "nucleus": "39da0d693090bf7e58f06e4b1aa5d17e36c161e6ec84c6f2bb75d0a8edae0771",
    "contrastive": "badedd8d15d6e9133818dd517d1280242a87111c2831e4975dba024a9f73b2c9",
    "ips": "ad245879de5d7fe5610c29f3f77e195a8100b1e19094259b9d2907cee2b6768d",
}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_backend_call_log_is_pinned(tiny_backend, contexts24, strategy):
    # Every model call the decoder makes, in order, over eight replies on the
    # from-scratch session: a change to the loop that adds, drops or reorders
    # a forward or a probe fails here, even where the replies stay the same.
    backend = RecordingBackend(tiny_backend)
    cfg = StrategyConfig(strategy=strategy, beam_width=3, seed=3)
    for ctx in contexts24[:8]:
        generate(backend, ctx, cfg)
    digest = hashlib.sha256(json.dumps(backend.log).encode()).hexdigest()
    assert digest == CALL_LOG_SHA256[strategy], f"{strategy}: {len(backend.log)} calls, sha256 {digest}"


def tied_scripted(seed: int, vocab_size: int, eou: int, depth: int, nudge: bool):
    """A table over every prefix beam can expand in `depth` steps, full of ties.

    Each distribution is integer weights 0-3, normalised, so equal weights
    tie and zeros score -inf. With `nudge`, each positive entry moves 0-2
    ulps down, so distinct probabilities can round to the same score.
    """
    info = BackendInfo(vocab_size=vocab_size, hidden_dim=2, eou_token_id=eou)
    rng = np.random.Generator(np.random.PCG64(seed))
    base = ((eou + 1) % vocab_size, eou)

    def probs():
        w = rng.integers(0, 4, size=vocab_size)
        w[rng.integers(0, vocab_size)] = max(1, w.max())
        p = w / w.sum()
        if nudge:
            for i in np.flatnonzero(p):
                for _ in range(int(rng.integers(0, 3))):
                    p[i] = np.nextafter(p[i], 0.0)
        return p

    table = {}
    suffixes = [()]
    for _ in range(depth):
        for s in suffixes:
            table[base + s] = StepOutput(
                probs=probs(),
                hidden_last=np.ones(2),
                hidden_all=[np.ones(2)] * len(base) if not s else None,
            )
        suffixes = [s + (t,) for s in suffixes for t in range(vocab_size) if t != eou]
    return ScriptedBackend(info, table), DialogueContext([[base[0]]])


def assert_beam_matches_exhaustive(backend, ctx, width, max_new_tokens):
    """beam_search and the exhaustive o_beam_search agree on every output and
    on the number of forward calls each makes; returns beam_search's result."""
    enc = encode_context(ctx, backend.info.eou_token_id)
    fast, slow = CountingBackend(backend), CountingBackend(backend)
    res = beam_search(fast, enc, width, max_new_tokens)
    tokens, probs, stop_reason, session = o_beam_search(slow, enc, width, max_new_tokens)
    assert res.tokens == tokens
    assert [r.prob for r in res.per_step] == probs
    assert res.stop_reason == stop_reason
    assert res.session.tokens == session.tokens
    assert fast.forward_calls == slow.forward_calls
    return res


@given(
    seed=st.integers(0, 2**32 - 1),
    vocab_size=st.integers(2, 6),
    max_new_tokens=st.integers(1, 4),
    nudge=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_beam_matches_exhaustive_expansion_under_ties(seed, vocab_size, max_new_tokens, nudge, data):
    eou = data.draw(st.integers(0, vocab_size - 1), label="eou")
    width = data.draw(st.integers(1, vocab_size + 1), label="width")
    backend, ctx = tied_scripted(seed, vocab_size, eou, max_new_tokens, nudge)
    assert_beam_matches_exhaustive(backend, ctx, width, max_new_tokens)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("width", [1, 2, 4])
def test_beam_walk_crosses_chunk_boundaries(seed, width, monkeypatch):
    # V = 300 at depth 2: in every distribution 100-150 tokens share the top
    # weight, each moved 0-3 ulps down. Their scores all lie within a few
    # ulps of the cut, so the walk keeps every one of them, and the helper's
    # first chunk of 64 or more splits them: the walk reads into the second.
    vocab_size, eou = 300, 299
    info = BackendInfo(vocab_size=vocab_size, hidden_dim=2, eou_token_id=eou)
    rng = np.random.Generator(np.random.PCG64(seed))
    base = (0, eou)

    def probs():
        w = rng.integers(0, 3, size=vocab_size).astype(float)
        top = rng.choice(vocab_size, int(rng.integers(100, 151)), replace=False)
        w[top] = 3.0
        p = w / w.sum()
        for i in top:
            for _ in range(int(rng.integers(0, 4))):
                p[i] = np.nextafter(p[i], 0.0)
        return p

    table = {}
    for s in [()] + [(t,) for t in range(vocab_size) if t != eou]:
        hidden_all = [np.ones(2)] * len(base) if not s else None
        table[base + s] = StepOutput(probs=probs(), hidden_last=np.ones(2), hidden_all=hidden_all)
    descending, pulled = strategies._descending, []

    def counted(v, *args):  # the helper, counting the chunks each walk pulls
        pulled.append(0)
        for chunk in descending(v, *args):
            pulled[-1] += 1
            yield chunk

    monkeypatch.setattr(strategies, "_descending", counted)
    assert_beam_matches_exhaustive(ScriptedBackend(info, table), DialogueContext([[0]]), width, 2)
    assert max(pulled) >= 2


def test_beam_walk_margin_covers_a_non_monotone_log():
    # A log one ulp low on odd mantissas. Three adjacent doubles x > x1 > x2
    # share one log value v, so they score v, v - 1 ulp, v in walk order:
    # the score dips below the cut and comes back to tie it. The tie goes to
    # x2's lower id, so a walk that stopped at the dip would return x's id.
    real_log = math.log

    def wobbly_log(value):
        mantissa = int(math.frexp(value)[0] * 2**53)
        return math.nextafter(real_log(value), -math.inf) if mantissa & 1 else real_log(value)

    x = 0.12
    while True:
        x1 = math.nextafter(x, 0.0)
        x2 = math.nextafter(x1, 0.0)
        if wobbly_log(x) == wobbly_log(x2) == math.nextafter(wobbly_log(x1), math.inf):
            break
        x = x1
    rest = (1.0 - x - x1 - x2) / 6
    probs = np.array([x2, x, x1] + [rest] * 6)
    info = BackendInfo(vocab_size=9, hidden_dim=2, eou_token_id=8)
    backend = ScriptedBackend(
        info, {(0, 8): StepOutput(probs=probs, hidden_last=np.ones(2), hidden_all=[np.ones(2)] * 2)}
    )
    with mock.patch("math.log", wobbly_log):
        res = assert_beam_matches_exhaustive(backend, DialogueContext([[0]]), width=1, max_new_tokens=1)
    assert res.tokens == [0]


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_beam_matches_exhaustive_expansion_on_the_compare_model(contexts24, width):
    # The model of the benchmark's compare workload, at V = 2048.
    backend = TinyTransformer(seed=42, vocab_size=2048, hidden_dim=32, layers=4, heads=4)
    for ctx in contexts24:
        enc = encode_context(ctx, backend.info.eou_token_id)
        res = beam_search(backend, enc, width, 12)
        tokens, probs, _, _ = o_beam_search(backend, enc, width, 12)
        assert res.tokens == tokens
        assert [r.prob for r in res.per_step] == probs


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

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_cap_far_above_the_reply_decodes_the_same_reply(self, strategy):
        # Nothing is sized by the cap, so a cap of 10**12 allocates no more
        # than a cap of 3 does, and the reply, which ends at EOU, is the same.
        from conftest import directional_scripted

        backend, ctx = directional_scripted()
        cfg = StrategyConfig(strategy=strategy, m=4, bootstrap_k=5, beam_width=2, seed=1)
        small = generate(backend, ctx, cfg.replace(max_new_tokens=3))
        huge = generate(backend, ctx, cfg.replace(max_new_tokens=10**12))
        assert small.stop_reason == huge.stop_reason == "eou"
        assert huge.tokens == small.tokens

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


SEARCH_CONFIGS = [
    *(
        dict(strategy="ips", penalty_form=form, beta=0.3, strict_isotropy=strict, bootstrap_n=n)
        for form in ("eq5", "beta")
        for strict in (False, True)
        for n in (0, 2)
    ),
    dict(strategy="contrastive", alpha=0.4),
]


@pytest.mark.parametrize(
    "overrides", SEARCH_CONFIGS, ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items())
)
def test_block_scores_match_the_scalar_oracles(tiny_backend, contexts24, overrides):
    """Every candidate's breakdown is the pure-Python oracle's, within 1e-12,
    and every choice is the oracle's lowest-id argmax."""
    cfg = StrategyConfig(m=5, max_new_tokens=8, **overrides)
    for seed, ctx in enumerate(contexts24):
        res = generate(tiny_backend, ctx, cfg.replace(seed=seed))
        # The last session holds the context rows and every reply row the loop scored.
        rows = res.session.extend(res.tokens[-1]).hidden_all
        generated = list(rows[len(rows) - len(res.tokens):])
        context = list(rows[: len(rows) - len(res.tokens)])
        for s, record in enumerate(res.per_step):
            if record.candidates is None:
                assert cfg.strategy == "ips" and s < cfg.bootstrap_n
                continue
            history = generated[:s]
            oracle = []
            for cand in record.candidates:
                if cfg.strategy == "contrastive":
                    penalty = o_degeneration_penalty(cand.hidden, context + history)
                    assert cand.penalty == pytest.approx(penalty, abs=1e-12)
                    score = (1.0 - cfg.alpha) * cand.prob - cfg.alpha * penalty
                else:
                    p_val = o_proximal_value(cand.hidden, history)
                    if cfg.strict_isotropy and history:
                        rep = o_response_representation(history)
                    else:
                        rep = o_response_representation(history, cand.hidden)
                    i_val = o_isotropic_value(rep, res.utterance_reps)
                    assert cand.p_value == pytest.approx(p_val, abs=1e-12)
                    assert cand.i_value == pytest.approx(i_val, abs=1e-12)
                    score = o_ips_score(cand.prob, p_val, i_val, cfg.alpha, cfg.beta, cfg.penalty_form)
                assert cand.score == pytest.approx(score, abs=1e-12)
                oracle.append((cand.token, score))
            # o_argmax_low_id takes the pairs in ascending token order.
            assert [t for t, _ in oracle] == sorted(t for t, _ in oracle)
            assert record.token == o_argmax_low_id(oracle)
            if cfg.strict_isotropy and history:
                assert len({c.i_value for c in record.candidates}) == 1


@pytest.mark.parametrize(
    "overrides",
    [dict(strategy="ips"), dict(strategy="ips", strict_isotropy=True), dict(strategy="contrastive", alpha=0.4)],
    ids=["ips", "ips-strict_isotropy", "contrastive"],
)
def test_candidates_are_one_record_of_columns(tiny_backend, contexts24, overrides):
    """A search step keeps its m candidates as one CandidateScore of
    read-only columns in ascending token order. The winner is the score
    column's argmax, and each candidate is a view of plain numbers over a
    row of the probe's matrix."""
    cfg = StrategyConfig(m=5, max_new_tokens=6, bootstrap_n=1, **overrides)
    ips = cfg.strategy == "ips"
    columns = ("prob", "score", "p_value", "i_value") if ips else ("prob", "score", "penalty")
    absent = ("penalty",) if ips else ("p_value", "i_value")
    steps = 0
    for seed, ctx in enumerate(contexts24[:6]):
        for record in generate(tiny_backend, ctx, cfg.replace(seed=seed)).per_step:
            cands = record.candidates
            if cands is None:
                continue
            steps += 1
            assert type(cands) is CandidateScore and len(cands) == cfg.m
            assert cands.token.dtype.kind == "i" and not cands.token.flags.writeable
            assert (np.diff(cands.token) > 0).all()
            for name in columns:
                column = getattr(cands, name)
                assert column.dtype == np.float64 and column.shape == (cfg.m,)
                assert not column.flags.writeable, name
            assert all(getattr(cands, name) is None for name in absent)
            assert cands.hidden.shape == (cfg.m, tiny_backend.info.hidden_dim)
            assert not cands.hidden.flags.writeable
            if cfg.strict_isotropy:
                assert len(set(cands.i_value.tolist())) == 1

            best = int(np.argmax(cands.score))
            assert record.token == cands.token[best]
            winner = cands[best]
            assert (record.token, record.prob, record.p_value, record.i_value, record.score) == (
                winner.token, winner.prob, winner.p_value, winner.i_value, winner.score
            )

            views = list(cands)
            assert [v.token for v in views] == cands.token.tolist()
            for i, view in enumerate(views):
                assert view and type(view) is CandidateScore and type(view.token) is int
                for name in columns:
                    value = getattr(view, name)
                    assert type(value) is float and value == getattr(cands, name)[i], name
                assert all(getattr(view, name) is None for name in absent)
                assert np.shares_memory(view.hidden, cands.hidden)
                assert (view.hidden == cands.hidden[i]).all()
    assert steps > 0


@pytest.mark.parametrize("strategy", ["ips", "contrastive"])
def test_step_records_compare_as_values(tiny_backend, contexts24, strategy):
    cfg = StrategyConfig(strategy=strategy, max_new_tokens=8, seed=3)
    first = generate(tiny_backend, contexts24[0], cfg).per_step
    again = generate(tiny_backend, contexts24[0], cfg).per_step
    assert first == again
    record = first[-1]
    assert record.candidates is not None
    assert record != again[-2]
    score = record.candidates.score.copy()
    score[0] += 1.0
    changed = dataclasses.replace(record.candidates, score=score)
    assert dataclasses.replace(record, candidates=changed) != record


def test_search_step_records_are_unhashable(tiny_backend, contexts24):
    """A search step's record holds arrays, so it compares as a value but
    says plainly that it cannot be hashed; a sampled step's record can."""
    cfg = StrategyConfig(strategy="ips", max_new_tokens=4, seed=3)
    record = generate(tiny_backend, contexts24[0], cfg).per_step[-1]
    for value in (record.candidates, record):
        with pytest.raises(TypeError, match="unhashable type: 'CandidateScore'"):
            hash(value)
    assert record == dataclasses.replace(record)
    step = generate(tiny_backend, contexts24[0], cfg.replace(strategy="topk")).per_step[-1]
    assert step.candidates is None
    assert hash(step) == hash(dataclasses.replace(step))


def _load_tracing(monkeypatch):
    """The benchmark's tracer module, loaded from its file without writing bytecode."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_wrap_targets_are_called(tiny_backend, contexts24, monkeypatch):
    """The benchmark's tracer wraps library functions by module attribute.
    Each must resolve, and the decoders must call every selection and
    scoring target through the attribute wrapped: a decode that went round
    one would leave its per-layer metric missing."""
    tracing = _load_tracing(monkeypatch)
    targets = {**tracing.SPAN_TARGETS, **tracing.COUNT_TARGETS, **tracing.CLI_TARGETS}
    calls = dict.fromkeys(targets, 0)

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name, (module_name, attr) in targets.items():
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        assert callable(fn), name
        if module_name in ("ipsearch.strategies", "ipsearch.scoring"):
            monkeypatch.setattr(module, attr, counted(name, fn))
    for overrides in (dict(strategy="ips"), dict(strategy="ips", bootstrap_strategy="nucleus"),
                      dict(strategy="contrastive")):
        generate(tiny_backend, contexts24[0], StrategyConfig(max_new_tokens=8, seed=3, **overrides))
    wanted = [n for n in targets if n.startswith(("select.", "scoring."))]
    assert "scoring.cosine" in wanted
    assert {n: calls[n] for n in wanted if not calls[n]} == {}
