"""Decoding sessions: the cached TinyTransformer session against from-scratch forwards."""
from __future__ import annotations

import dataclasses
import gc
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipsearch import (
    ArgumentError,
    Backend,
    DialogueContext,
    StrategyConfig,
    TinyTransformer,
    VocabError,
    encode_context,
    generate,
    load_scripted,
)
from ipsearch.backend import _TinySession
from ipsearch.core import STRATEGIES

from conftest import TINY_ARGS, CountingBackend, count_passes, directional_scripted, random_scripted

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TOL = dict(rtol=0.0, atol=1e-12)
VOCAB = 40


@given(
    seed=st.integers(0, 2**32 - 1),
    layers=st.integers(1, 3),
    heads=st.sampled_from([1, 2, 4]),
    dim=st.sampled_from([8, 16]),
    # Up to 140 positions: attention rows cross numpy's 8- and 128-element
    # pairwise-summation blocks.
    prefix=st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=140),
    candidates=st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=8, unique=True),
    data=st.data(),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_session_matches_from_scratch_forward(seed, layers, heads, dim, prefix, candidates, data):
    model = TinyTransformer(seed=seed, vocab_size=VOCAB, hidden_dim=dim, layers=layers, heads=heads)
    unprobed = data.draw(st.sampled_from(sorted(set(range(VOCAB)) - set(candidates))))
    ref = model.forward(prefix, want_all_hidden=True)
    session = model.open(prefix)
    np.testing.assert_allclose(session.probs, ref.probs, **TOL)
    for got, want in zip(session.hidden_all, ref.hidden_all, strict=True):
        np.testing.assert_allclose(got, want, **TOL)
    for got, c in zip(session.probe(candidates), candidates, strict=True):
        np.testing.assert_allclose(got, model.forward(prefix + [c]).hidden_last, **TOL)
    for token in (candidates[0], unprobed):
        longer = session.extend(token)
        np.testing.assert_allclose(longer.probs, model.forward(prefix + [token]).probs, **TOL)
        for got, c in zip(longer.probe(candidates), candidates, strict=True):
            np.testing.assert_allclose(got, model.forward(prefix + [token, c]).hidden_last, **TOL)


def _assert_matches_forward(model, session, tokens):
    ref = model.forward(tokens, want_all_hidden=True)
    assert session.tokens == tokens
    np.testing.assert_allclose(session.probs, ref.probs, **TOL)
    for got, want in zip(session.hidden_all, ref.hidden_all, strict=True):
        np.testing.assert_allclose(got, want, **TOL)


def _assert_probe_matches_forward(model, session, candidates):
    for got, c in zip(session.probe(candidates), candidates, strict=True):
        np.testing.assert_allclose(got, model.forward(session.tokens + [c]).hidden_last, **TOL)


@given(
    seed=st.integers(0, 2**32 - 1),
    layers=st.integers(1, 4),
    heads=st.sampled_from([1, 2, 4]),
    dim=st.sampled_from([8, 16, 32]),
    prefix=st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=24),
    # Per extend: the candidates probed first, and whether the next token is
    # one of them.
    steps=st.lists(
        st.tuples(st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=6, unique=True), st.booleans()),
        min_size=2,
        max_size=6,
    ),
    data=st.data(),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_session_chains_match_from_scratch_forward(seed, layers, heads, dim, prefix, steps, data):
    # Each extend appends one row to the cache; every later step reads every
    # row, so a wrong row shows at once or a step later.
    model = TinyTransformer(seed=seed, vocab_size=VOCAB, hidden_dim=dim, layers=layers, heads=heads)
    branch_at = data.draw(st.integers(0, len(steps) - 1))
    session, tokens = model.open(prefix), list(prefix)
    for n, (candidates, take_probed) in enumerate(steps):
        _assert_probe_matches_forward(model, session, candidates)
        unprobed = sorted(set(range(VOCAB)) - set(candidates))
        token = data.draw(st.sampled_from(candidates if take_probed else unprobed))
        if n == branch_at:
            # A sibling from the same session, by the other kind of token.
            other = data.draw(st.sampled_from(unprobed if take_probed else candidates))
            sibling = session.extend(other)
            _assert_matches_forward(model, sibling, tokens + [other])
            _assert_probe_matches_forward(model, sibling, candidates)
            _assert_matches_forward(model, sibling.extend(candidates[-1]), tokens + [other, candidates[-1]])
        session, tokens = session.extend(token), tokens + [token]
        _assert_matches_forward(model, session, tokens)
    _assert_probe_matches_forward(model, session, steps[0][0])


@given(
    seed=st.integers(0, 2**32 - 1),
    # (hidden_dim, layers, heads)
    shape=st.sampled_from([(8, 1, 1), (16, 2, 2), (32, 3, 4)]),
    ids=st.lists(st.integers(0, VOCAB - 1), min_size=2, max_size=140),
    data=st.data(),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_causal_chunk_over_a_cache_matches_one_pass(seed, shape, ids, data):
    # Chunked prefill: the rows after an opened prefix, run as one causal
    # chunk over its cache, are the rows of one pass over the whole sequence.
    dim, layers, heads = shape
    model = TinyTransformer(seed=seed, vocab_size=VOCAB, hidden_dim=dim, layers=layers, heads=heads)
    c = data.draw(st.integers(1, len(ids) - 1))
    hidden, kv = model._run(model.open(ids[:c])._kv, ids[c:], causal=True)
    whole = model.open(ids)
    np.testing.assert_allclose(hidden, whole.hidden_all[c:], **TOL)
    np.testing.assert_allclose(kv, whole._kv, **TOL)


def test_probe_rejects_bad_candidates(tiny_backend):
    session = tiny_backend.open([1, 63])
    with pytest.raises(ArgumentError):
        session.probe([])
    with pytest.raises(VocabError):
        session.probe([3, 64])
    with pytest.raises(VocabError):
        session.extend(64)


def test_sibling_calls_leave_a_session_unchanged(tiny_backend):
    # The kernels write in place, so guard the arrays a session shares with
    # its siblings and with the batches that read them.
    prefix = list(range(1, 40))
    session = tiny_backend.open(prefix)
    longer = session.extend(5)

    def snapshot(s):
        return (
            [h.tobytes() for h in s.hidden_all],
            s.probs.tobytes(),
            [(keys.tobytes(), values.tobytes()) for keys, values in s._kv],
        )

    before = [snapshot(s) for s in (session, longer)]
    session.probe([3, 7, 9])
    session.extend(7).probe([1, 2])
    longer.extend(2).extend(4)
    tiny_backend.forward(prefix + [3], want_all_hidden=True)
    tiny_backend.forward_candidates(prefix, [3, 7])
    assert [snapshot(s) for s in (session, longer)] == before


def test_a_probed_row_cannot_be_written_into_a_longer_session(tiny_backend):
    session = tiny_backend.open([1, 2, 3])
    rows = session.probe([5, 9])
    longer = session.extend(5)
    assert not np.shares_memory(longer.hidden_all, rows)
    for a in (rows, longer.hidden_all, longer.probs):
        with pytest.raises(ValueError, match="read-only"):
            a[-1] += 1.0
    want = tiny_backend.forward([1, 2, 3, 5], want_all_hidden=True).hidden_all
    np.testing.assert_allclose(longer.hidden_all, want, **TOL)


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_same_session(got, want) -> None:
    assert got.tokens == want.tokens
    _assert_same_bits(got.hidden_all, want.hidden_all)
    _assert_same_bits(got.probs, want.probs)


CALLS = ("open", "forward", "forward_candidates", "probe", "repeat", "extend")


@given(
    seed=st.integers(0, 2**32 - 1),
    base=st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=30),
    data=st.data(),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_the_kept_pass_changes_no_bit(seed, base, data):
    # Each call is made on one model, which keeps its last pass, and on a
    # fresh model, which has none; a probe or extend goes to the pair of
    # sessions that those calls opened, and a repeat probes an earlier
    # probe's candidates again. 2-3 prefixes of one base, some equal, so
    # calls repeat a prefix or extend a kept one.
    args = (seed, VOCAB, 16, 2, 2)
    model = TinyTransformer(*args)
    prefixes = [base[:n] for n in data.draw(st.lists(st.integers(1, len(base)), min_size=2, max_size=3))]
    calls = st.tuples(
        st.sampled_from(CALLS),
        st.integers(0, 15),
        st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=6, unique=True),
    )
    sessions = []  # (a session on model, the same session on fresh models)
    probed = []  # the candidates of every probe so far
    for call, i, candidates in data.draw(st.lists(calls, min_size=1, max_size=16)):
        if call == "repeat" and probed:
            candidates = probed[i % len(probed)]
        prefix = prefixes[i % len(prefixes)]
        fresh = TinyTransformer(*args)
        if call == "open":
            sessions.append((model.open(prefix), fresh.open(prefix)))
        elif call == "forward":
            got, want = model.forward(prefix, want_all_hidden=True), fresh.forward(prefix, want_all_hidden=True)
            for field in ("probs", "hidden_last", "hidden_all"):
                _assert_same_bits(getattr(got, field), getattr(want, field))
        elif call == "forward_candidates":
            got, want = model.forward_candidates(prefix, candidates), fresh.forward_candidates(prefix, candidates)
            _assert_same_bits(got, want)
            probed.append(candidates)
        elif sessions:
            session, ref = sessions[i % len(sessions)]
            if call in ("probe", "repeat"):
                _assert_same_bits(session.probe(candidates), ref.probe(candidates))
                probed.append(candidates)
            else:
                sessions.append((session.extend(candidates[0]), ref.extend(candidates[0])))
    # Read last, so some sessions' probs are first read after later calls.
    for session, ref in sessions:
        _assert_same_session(session, ref)


def test_sessions_over_one_kept_pass_stay_independent():
    model = TinyTransformer(**TINY_ARGS)
    prefix = [3, 1, 4, 1, 5, 9, 2, 6]
    first, second = model.open(prefix), model.open(prefix)
    assert first is not second
    first.probe([7, 11, 13, 17, 19, 23])
    _assert_same_session(second.extend(13), TinyTransformer(**TINY_ARGS).open(prefix).extend(13))
    # The shared arrays are read-only at their base: a kernel cannot write
    # into the keys and values, and no view of the hidden states can be
    # made writable again.
    assert not second._kv.flags.writeable
    with pytest.raises(ValueError):
        second.hidden_all.setflags(write=True)


def test_forward_candidates_after_a_forward_of_its_prefix_runs_only_the_probe(monkeypatch):
    model = TinyTransformer(**TINY_ARGS)
    passes = count_passes(monkeypatch, model)
    prefix = [5, 6, 7, 63, 8, 9]
    model.forward(prefix)
    model.forward_candidates(prefix, [1, 2, 3])
    assert passes == {"causal": 1, "probe": 1}
    # Only the same ids reuse the pass, and only the last one is kept.
    model.forward(prefix + [1])
    model.forward(prefix)
    assert passes == {"causal": 3, "probe": 1}


def test_threads_share_the_kept_pass():
    # Two threads take turns replacing the kept pass; each result must be
    # the one a fresh model gives. A short switch interval makes a switch
    # inside a call more likely.
    model = TinyTransformer(**TINY_ARGS)
    jobs = [([5, 6, 7, 63, 8, 9], [1, 2, 3]), (list(range(10, 40)), [4, 5])]
    fresh = [(TinyTransformer(**TINY_ARGS), TinyTransformer(**TINY_ARGS)) for _ in jobs]
    want = [(a.forward(p, want_all_hidden=True), b.forward_candidates(p, c)) for (p, c), (a, b) in zip(jobs, fresh)]
    got = [[], []]
    start = threading.Barrier(len(jobs))

    def run(n):
        prefix, candidates = jobs[n]
        start.wait(timeout=60)
        for _ in range(200):
            got[n].append((model.forward(prefix, want_all_hidden=True), model.forward_candidates(prefix, candidates)))

    threads = [threading.Thread(target=run, args=(n,)) for n in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for results, (out, rows) in zip(got, want, strict=True):
        assert len(results) == 200
        for got_out, got_rows in results:
            for field in ("probs", "hidden_last", "hidden_all"):
                _assert_same_bits(getattr(got_out, field), getattr(out, field))
            _assert_same_bits(got_rows, rows)


def _bits(value):
    """A step record's fields as bytes, nested like the record, so that ==
    compares bits."""
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return None if value is None else np.asarray(value).tobytes()


def _assert_same_reply(got, want) -> None:
    assert got.tokens == want.tokens and got.stop_reason == want.stop_reason
    assert [_bits(r) for r in got.per_step] == [_bits(r) for r in want.per_step]
    _assert_same_bits(got.session.extend(got.tokens[-1]).hidden_all, want.session.extend(want.tokens[-1]).hidden_all)


REPLY_CONTEXT = DialogueContext([[5, 6, 7], [8, 9]])


def test_replies_on_one_context_share_their_passes(monkeypatch):
    # Greedy, beam and contrastive choose alike at every seed, so the second
    # seed's reply finds every probe kept with the context's pass and runs
    # nothing; every reply has the bits of the same decode on a fresh model.
    model = TinyTransformer(**TINY_ARGS)
    passes = count_passes(monkeypatch, model)
    for strategy in ("greedy", "beam", "contrastive"):
        for seed in (1, 2):
            cfg = StrategyConfig(strategy=strategy, seed=seed, max_new_tokens=12)
            before = passes.copy()
            got = generate(model, REPLY_CONTEXT, cfg)
            if seed == 2:
                assert passes == before, strategy
            assert len(got.tokens) > 3
            _assert_same_reply(got, generate(TinyTransformer(**TINY_ARGS), REPLY_CONTEXT, cfg))


def test_kept_probes_are_keyed_on_how_the_rows_came():
    # Two sessions reach the same tokens, the prefix and t, by different
    # rows for t: one from a probe of six candidates, one from t alone. Those
    # rows, and so every probe over them, may differ in the last bit, so
    # neither session may take the other's kept probe: each must match its
    # twin on a fresh model, in either order.
    prefix, batch = [5, 6, 7, 63, 8, 9], [7, 11, 13, 17, 19, 23]

    def by_batch(session, t):
        session.probe(batch)
        return session.extend(t)

    def alone(session, t):
        return session.extend(t)

    model = TinyTransformer(**TINY_ARGS)
    differ = 0
    for n, t in enumerate(batch):
        ways = (by_batch, alone) if n % 2 else (alone, by_batch)
        rows = [way(model.open(prefix), t).probe(batch) for way in ways]
        for way, got in zip(ways, rows):
            _assert_same_bits(got, way(TinyTransformer(**TINY_ARGS).open(prefix), t).probe(batch))
        differ += rows[0].tobytes() != rows[1].tobytes()
    assert differ  # else the two ways could not tell a key on tokens from this one


def test_kept_probes_are_bounded_by_max_seq_len(monkeypatch):
    # 7 batches of 6 rows, and one of 40, over one kept pass of a model that
    # keeps at most 32 probe rows: the first batches that fit are kept, a
    # batch larger than the bound never is, and nothing is evicted.
    model = TinyTransformer(**TINY_ARGS, max_seq_len=32)
    passes = count_passes(monkeypatch, model)
    session = model.open([5, 6, 7, 63])
    batches = [list(range(i, i + 6)) for i in range(0, 42, 6)]
    for batch in [list(range(40))] + batches:
        session.probe(batch)
    hits = []
    for batch in reversed(batches):  # newest first: the last two came after the table was full
        before = passes["probe"]
        session.probe(batch)
        hits.append(passes["probe"] == before)
    assert hits == [False] * 2 + [True] * 5
    before = passes["probe"]
    session.probe(list(range(40)))
    assert passes["probe"] == before + 1


def test_only_sessions_over_the_kept_pass_share_its_probes(monkeypatch):
    # A session over a replaced pass reads none of the kept probes, though
    # its key is the same, and keeps none of its own.
    model = TinyTransformer(**TINY_ARGS)
    passes = count_passes(monkeypatch, model)
    old = model.open([1, 2, 63])
    new = model.open([4, 5, 63])  # replaces the kept pass
    new.probe([7, 8])
    for _ in range(2):
        _assert_same_bits(old.probe([7, 8]), TinyTransformer(**TINY_ARGS).open([1, 2, 63]).probe([7, 8]))
    assert passes == {"causal": 2, "probe": 3}


def test_kept_probes_go_with_the_kept_pass(monkeypatch):
    # The probes kept with a pass hold the rows they computed, and a reply's
    # result only its own: once the model opens another context, the rows
    # that only reply A made die, though reply B's result lives on.
    model = TinyTransformer(**TINY_ARGS)
    made = []  # (weak reference, id) of every probe's rows
    probe = _TinySession.probe

    def recording(self, candidates):
        rows = probe(self, candidates)
        made.append((weakref.ref(rows), id(rows)))
        return rows

    monkeypatch.setattr(_TinySession, "probe", recording)
    generate(model, REPLY_CONTEXT, StrategyConfig(strategy="contrastive", max_new_tokens=12))
    by_a, made[:] = list(made), []
    cfg = StrategyConfig(strategy="ips", max_new_tokens=12)  # its last session probes
    b = generate(model, REPLY_CONTEXT, cfg)
    gc.collect()
    by_b = {ident for _, ident in made}
    only_a = [ref for ref, ident in by_a if ref() is not None and ident not in by_b]
    assert only_a  # kept with the pass until now
    model.open([1, 2, 63])
    gc.collect()
    assert all(ref() is None for ref in only_a)
    _assert_same_reply(b, generate(TinyTransformer(**TINY_ARGS), REPLY_CONTEXT, cfg))


def test_threads_decode_one_context_while_another_opens_others():
    # Two threads decode one context on one model, sharing the probes kept
    # with its pass, while a third replaces that pass with other contexts'.
    # Every reply must have the bits of the serial decode, and no thread may
    # raise. A short switch interval makes a switch inside a call more likely.
    model = TinyTransformer(**TINY_ARGS)
    jobs = [
        [StrategyConfig(strategy="greedy", seed=seed, max_new_tokens=12) for seed in (1, 2)],
        [StrategyConfig(strategy="contrastive", max_new_tokens=12)],
    ]
    want = [[generate(TinyTransformer(**TINY_ARGS), REPLY_CONTEXT, cfg) for cfg in cfgs] for cfgs in jobs]
    got = [[] for _ in jobs]
    errors = []
    start = threading.Barrier(len(jobs) + 1)

    def decode(n):
        start.wait(timeout=60)
        for _ in range(30):
            got[n].append([generate(model, REPLY_CONTEXT, cfg) for cfg in jobs[n]])

    def open_others():
        start.wait(timeout=60)
        i = 0
        while any(t.is_alive() for t in threads[:-1]):  # until both decoders are done
            model.open([i % 60, 63]).probe([1, 2, 3])
            i += 1

    def guarded(target, *args):
        try:
            target(*args)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(decode, n)) for n in range(len(jobs))]
    threads.append(threading.Thread(target=guarded, args=(open_others,)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    probes = model._last[4]  # a lost update to the row count shows here
    assert probes.rows == sum(len(ids) for _, ids in probes) <= probes.bound
    for replies, serial in zip(got, want, strict=True):
        assert len(replies) == 30
        for results in replies:
            for result, ref in zip(results, serial, strict=True):
                _assert_same_reply(result, ref)


def test_length_errors_match_forward():
    model = TinyTransformer(**TINY_ARGS, max_seq_len=12)
    with pytest.raises(ArgumentError) as scratch:
        model.forward(list(range(13)))
    for call in (
        lambda: model.open(list(range(13))),
        lambda: model.open(list(range(12))).probe([1]),
        lambda: model.open(list(range(12))).extend(1),
    ):
        with pytest.raises(ArgumentError) as cached:
            call()
        assert str(cached.value) == str(scratch.value) == "prefix length 13 exceeds max_seq_len 12"


@pytest.mark.parametrize(
    "strategy,max_new_tokens",
    [(s, 8) for s in STRATEGIES] + [(s, 10**12) for s in STRATEGIES],
    ids=[*STRATEGIES, *(f"{s}-cap-1e12" for s in STRATEGIES)],
)
def test_every_strategy_stops_at_the_length_limit(strategy, max_new_tokens):
    model = TinyTransformer(**TINY_ARGS, max_seq_len=12)
    ctx = DialogueContext([[47, 48, 49, 50, 51, 52, 53, 54]])  # 9 tokens with the EOU
    with pytest.raises(ArgumentError, match="exceeds max_seq_len 12"):
        generate(model, ctx, StrategyConfig(strategy=strategy, max_new_tokens=max_new_tokens, seed=1))


class SessionOnlyBackend(Backend):
    """``info`` and ``forward`` over ``inner`` and nothing more; asking it
    for candidates outside a session raises."""

    def __init__(self, inner: Backend):
        self.inner = inner

    @property
    def info(self):
        return self.inner.info

    def forward(self, prefix, want_all_hidden=False):
        return self.inner.forward(prefix, want_all_hidden)

    def forward_candidates(self, prefix, candidates):
        raise AssertionError("candidates asked for outside a session")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_cached_session_decides_like_from_scratch(tiny_backend, contexts24, strategy):
    # Both backends decode on sessions that compute from scratch, one forward
    # per distribution and per probed candidate. CountingBackend's sessions
    # probe through its forward_candidates; SessionOnlyBackend keeps the
    # default open, so the decoders must ask for candidates only through
    # the session.
    for i, ctx in enumerate(contexts24):
        cfg = StrategyConfig(strategy=strategy, max_new_tokens=12, seed=i)
        cached = generate(tiny_backend, ctx, cfg)
        for backend in (CountingBackend(tiny_backend), SessionOnlyBackend(tiny_backend)):
            scratch = generate(backend, ctx, cfg)
            assert cached.tokens == scratch.tokens
            assert cached.stop_reason == scratch.stop_reason
            for a, b in zip(cached.per_step, scratch.per_step, strict=True):
                for field in ("prob", "score", "p_value", "i_value"):
                    x, y = getattr(a, field), getattr(b, field)
                    assert (x is None) == (y is None)
                    if x is not None:
                        assert abs(x - y) <= 1e-12, (field, x, y)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_result_session_holds_every_hidden_state(tiny_backend, contexts24, strategy):
    # Extending the result's session by the reply's last token gives the rows
    # of one full forward over context and reply: within 1e-12 from the
    # TinyTransformer cache, and bitwise from the default session.
    for i, ctx in enumerate(contexts24):
        cfg = StrategyConfig(strategy=strategy, max_new_tokens=12, seed=i)
        for backend, atol in ((tiny_backend, 1e-12), (CountingBackend(tiny_backend), 0.0)):
            result = generate(backend, ctx, cfg)
            final = result.session.extend(result.tokens[-1])
            tokens = list(encode_context(ctx, 63).tokens) + result.tokens
            assert final.tokens == tokens
            ref = tiny_backend.forward(tokens, want_all_hidden=True).hidden_all
            for got, want in zip(final.hidden_all, ref, strict=True):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)


def _demo():
    return load_scripted(FIXTURES / "scripted_demo.json"), DialogueContext([[0]])


# Replies with the tables as they are; beam needs entries that the demo
# table lacks, so it is left out there.
SCRIPTED_REPLIES = [
    (_demo, dict(m=4, bootstrap_n=1, bootstrap_k=5, max_new_tokens=8), {
        "greedy": [1, 3, 4], "topk": [1, 4], "nucleus": [1, 2, 4], "contrastive": [1, 4], "ips": [1, 2, 4],
    }),
    (lambda: random_scripted(seed=3), dict(m=3, bootstrap_n=1, bootstrap_k=4, beam_width=2, max_new_tokens=2), {
        "greedy": [2], "beam": [2], "topk": [3, 0], "nucleus": [3, 0], "contrastive": [2], "ips": [3, 3],
    }),
    (directional_scripted, dict(m=2, bootstrap_n=1, bootstrap_k=5, bootstrap_strategy="greedy",
                                beam_width=2, max_new_tokens=3), {
        "greedy": [1, 3, 4], "beam": [1, 3, 4], "topk": [1, 4], "nucleus": [1, 2, 4],
        "contrastive": [1, 3, 4], "ips": [1, 2, 4],
    }),
]


@pytest.mark.parametrize("make, settings_, replies", SCRIPTED_REPLIES)
def test_scripted_fixtures_decode_with_their_tables(make, settings_, replies):
    backend, ctx = make()
    for strategy, tokens in replies.items():
        cfg = StrategyConfig(strategy=strategy, seed=1, **settings_)
        assert generate(backend, ctx, cfg).tokens == tokens, strategy
