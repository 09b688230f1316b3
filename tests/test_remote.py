"""Remote backend: wire-protocol round-trips and failure handling."""
from __future__ import annotations

import numpy as np
import pytest

from ipsearch import (
    DialogueContext,
    ProtocolError,
    RemoteBackend,
    StrategyConfig,
    TinyTransformer,
    VocabError,
    generate,
)

from wire_server import BackendHTTPServer, RawBody

SMALL = dict(seed=42, vocab_size=64, hidden_dim=16, layers=1, heads=2)


@pytest.fixture(scope="module")
def wrapped():
    return TinyTransformer(**SMALL)


def test_info_round_trip(wrapped):
    with BackendHTTPServer(wrapped) as server:
        remote = RemoteBackend(server.url)
        assert remote.info == wrapped.info
        assert remote.info.vocab_size == 64
        assert remote.info.hidden_dim == 16
        assert remote.info.eou_token_id == 63


def test_forward_round_trip(wrapped):
    with BackendHTTPServer(wrapped) as server:
        remote = RemoteBackend(server.url)
        got = remote.forward([1, 2])
        want = wrapped.forward([1, 2])
        np.testing.assert_allclose(got.probs, want.probs, atol=1e-12)
        np.testing.assert_allclose(got.hidden_last, want.hidden_last, atol=1e-12)
        assert got.hidden_all is None
        got_all = remote.forward([1, 2, 3], want_all_hidden=True)
        want_all = wrapped.forward([1, 2, 3], want_all_hidden=True)
        assert len(got_all.hidden_all) == 3
        for g, w in zip(got_all.hidden_all, want_all.hidden_all):
            np.testing.assert_allclose(g, w, atol=1e-12)


def test_forward_batch_round_trip(wrapped):
    with BackendHTTPServer(wrapped) as server:
        remote = RemoteBackend(server.url)
        got = remote.forward_candidates([4, 5], [1, 2, 3])
        want = wrapped.forward_candidates([4, 5], [1, 2, 3])
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, atol=1e-12)


@pytest.mark.parametrize("bootstrap_n", [2, 0])
def test_ips_reply_request_counts(wrapped, bootstrap_n):
    # An 8-token reply: the context and 7 later distributions over /forward,
    # one candidate probe per step over /forward_batch.
    with BackendHTTPServer(wrapped) as server:
        remote = RemoteBackend(server.url)
        server.requests.clear()
        cfg = StrategyConfig(strategy="ips", bootstrap_n=bootstrap_n, max_new_tokens=8, seed=1)
        result = generate(remote, DialogueContext([[5, 6], [7, 8, 9]]), cfg)
        assert len(result.tokens) == 8
        assert server.requests == {"/forward": 8, "/forward_batch": 8}


def test_logits_normalized_client_side(wrapped):
    def to_logits(path, doc):
        if path == "/forward" and "probs" in doc:
            probs = np.asarray(doc.pop("probs"))
            doc["logits"] = list(np.log(probs + 1e-12))
        return doc

    with BackendHTTPServer(wrapped, transform=to_logits) as server:
        remote = RemoteBackend(server.url)
        got = remote.forward([1, 2])
        want = wrapped.forward([1, 2])
        np.testing.assert_allclose(got.probs, want.probs, atol=1e-8)


def test_unnormalized_probs_rejected(wrapped):
    def halve(path, doc):
        if path == "/forward":
            doc["probs"] = [p * 0.5 for p in doc["probs"]]
        return doc

    with BackendHTTPServer(wrapped, transform=halve) as server:
        remote = RemoteBackend(server.url)
        with pytest.raises(ProtocolError, match="sums to"):
            remote.forward([1])


def test_missing_field_rejected(wrapped):
    def drop(path, doc):
        if path == "/forward":
            doc.pop("hidden_last")
        return doc

    with BackendHTTPServer(wrapped, transform=drop) as server:
        remote = RemoteBackend(server.url)
        with pytest.raises(ProtocolError, match="hidden_last"):
            remote.forward([1])


def test_garbage_body_rejected(wrapped):
    def garble(path, doc):
        if path == "/forward":
            return RawBody(b"{not json")
        return doc

    with BackendHTTPServer(wrapped, transform=garble) as server:
        remote = RemoteBackend(server.url)
        with pytest.raises(ProtocolError, match="JSON"):
            remote.forward([1])


@pytest.fixture
def proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    # A proxy on a port nothing listens on: a request sent through it fails.
    monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:1")
    return monkeypatch


def test_proxy_environment_honoured(wrapped, proxy_env):
    with BackendHTTPServer(wrapped) as server:
        with pytest.raises(ProtocolError):
            RemoteBackend(server.url)
        proxy_env.setenv("NO_PROXY", "127.0.0.1")
        assert RemoteBackend(server.url).info == wrapped.info


def test_environment_read_at_construction(wrapped, proxy_env):
    proxy_env.setenv("NO_PROXY", "127.0.0.1")
    with BackendHTTPServer(wrapped) as server:
        remote = RemoteBackend(server.url)
        proxy_env.delenv("NO_PROXY")
        got = remote.forward([1, 2])
        np.testing.assert_allclose(got.probs, wrapped.forward([1, 2]).probs, atol=1e-12)


def test_unreachable_endpoint_fails_at_startup():
    with pytest.raises(ProtocolError):
        RemoteBackend("http://127.0.0.1:1")


def test_timeout(wrapped):
    with BackendHTTPServer(wrapped, delay=0.5) as server:
        with pytest.raises(TimeoutError):
            RemoteBackend(server.url, timeout=0.05)


def test_vocab_checked_client_side(wrapped):
    with BackendHTTPServer(wrapped) as server:
        remote = RemoteBackend(server.url)
        with pytest.raises(VocabError):
            remote.forward([999])
