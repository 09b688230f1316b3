"""Remote backend: wire-protocol round-trips and failure handling."""
from __future__ import annotations

import base64
import shutil
import ssl
import subprocess
import threading
import time

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

from wire_server import HANGUP, BackendHTTPServer, ForwardingProxy, RawBody

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


# The transport: one keep-alive connection, and what it does when the
# connection fails.


def test_ips_reply_uses_one_keep_alive_connection(wrapped):
    with BackendHTTPServer(wrapped, keep_alive=True) as server:
        remote = RemoteBackend(server.url)
        server.requests.clear()
        cfg = StrategyConfig(strategy="ips", bootstrap_n=2, max_new_tokens=8, seed=1)
        result = generate(remote, DialogueContext([[5, 6], [7, 8, 9]]), cfg)
        assert len(result.tokens) == 8
        assert server.requests == {"/forward": 8, "/forward_batch": 8}
        assert server.connections == 1
        remote._session.close()  # the keep-alive connection


def test_dropped_idle_connection_is_resent_once_on_a_new_one(wrapped):
    with BackendHTTPServer(wrapped, keep_alive=True) as server:
        remote = RemoteBackend(server.url)
        remote.forward([1, 2])
        server.drop()
        server.requests.clear()
        got = remote.forward_candidates([3, 4], [5, 6])
        for g, w in zip(got, wrapped.forward_candidates([3, 4], [5, 6])):
            np.testing.assert_allclose(g, w, atol=1e-12)
        assert server.connections == 2
        assert server.requests == {"/forward_batch": 1}
        remote._session.close()


def _hang_up_on_forward(times: int):
    """A transform that closes the connection on the first ``times`` /forward requests."""
    served = []

    def transform(path, doc):
        if path == "/forward":
            served.append(path)
            if len(served) <= times:
                return HANGUP
        return doc

    return transform


def test_failure_on_a_fresh_connection_is_not_retried(wrapped):
    # HTTP/1.0: every request opens its own connection.
    with BackendHTTPServer(wrapped, transform=_hang_up_on_forward(2)) as server:
        remote = RemoteBackend(server.url)
        with pytest.raises(ProtocolError, match="/forward failed"):
            remote.forward([1])
        assert server.requests["/forward"] == 1


def test_failure_on_a_reused_connection_is_retried_once(wrapped):
    with BackendHTTPServer(wrapped, transform=_hang_up_on_forward(2), keep_alive=True) as server:
        remote = RemoteBackend(server.url)
        with pytest.raises(ProtocolError, match="/forward failed"):
            remote.forward([1])
        assert server.requests["/forward"] == 2
        assert server.connections == 2


def test_call_after_a_timeout_gets_its_own_answer(wrapped):
    slow = threading.Event()

    def first_forward_slow(path, doc):
        if path == "/forward" and not slow.is_set():
            slow.set()
            time.sleep(0.5)
        return doc

    with BackendHTTPServer(wrapped, transform=first_forward_slow, keep_alive=True) as server:
        remote = RemoteBackend(server.url, timeout=0.2)
        with pytest.raises(TimeoutError):
            remote.forward([1, 2])
        # The late answer to [1, 2] must not be read as this one's.
        got = remote.forward([3, 4])
        np.testing.assert_allclose(got.probs, wrapped.forward([3, 4]).probs, atol=1e-12)
        remote._session.close()


@pytest.mark.parametrize("status", [301, 302, 307])
def test_redirect_is_not_followed(wrapped, status):
    def redirect(path, doc):
        if path == "/forward":
            return RawBody(b"", status=status, headers={"Location": "/info"})
        return doc

    with BackendHTTPServer(wrapped, transform=redirect) as server:
        remote = RemoteBackend(server.url)
        with pytest.raises(ProtocolError, match=f"HTTP {status}"):
            remote.forward([1])
        assert server.requests["/info"] == 1


# The environment settings requests applies: proxies, .netrc and CA bundles.


@pytest.fixture
def clean_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE", "NETRC"):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def _basic(user, password):
    return "Basic " + base64.b64encode(f"{user}:{password}".encode()).decode()


def test_http_proxy_receives_absolute_targets(wrapped, clean_env):
    with BackendHTTPServer(wrapped) as server, ForwardingProxy() as proxy:
        host_port = proxy.url.removeprefix("http://")
        clean_env.setenv("HTTP_PROXY", f"http://pat:s%40cret@{host_port}")
        remote = RemoteBackend(server.url)
        got = remote.forward([1, 2])
        np.testing.assert_allclose(got.probs, wrapped.forward([1, 2]).probs, atol=1e-12)
        assert proxy.targets == [server.url + "/info", server.url + "/forward"]
        assert proxy.proxy_authorization == [_basic("pat", "s@cret")] * 2
        assert server.requests == {"/info": 1, "/forward": 1}


def test_netrc_credentials_are_sent(wrapped, clean_env, tmp_path):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login alice password s3cret\n")
    netrc.chmod(0o600)
    clean_env.setenv("NETRC", str(netrc))
    with BackendHTTPServer(wrapped) as server:
        RemoteBackend(server.url).forward([1])
        assert [h.get("Authorization") for h in server.request_headers] == [_basic("alice", "s3cret")] * 2


@pytest.fixture
def self_signed(tmp_path):
    """A certificate for 127.0.0.1 signed by its own key: (cert path, server TLS context)."""
    if shutil.which("openssl") is None:
        pytest.skip("the openssl command is not installed")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-keyout", str(key), "-out", str(cert), "-days", "1",
         "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True, capture_output=True,
    )
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    return cert, context


def test_https_trusts_the_ca_bundle_from_the_environment(wrapped, clean_env, self_signed):
    cert, context = self_signed
    with BackendHTTPServer(wrapped, tls=context) as server:
        with pytest.raises(ProtocolError):
            RemoteBackend(server.url)
        clean_env.setenv("REQUESTS_CA_BUNDLE", str(cert))
        got = RemoteBackend(server.url).forward([1, 2])
        np.testing.assert_allclose(got.probs, wrapped.forward([1, 2]).probs, atol=1e-12)


def test_https_is_tunnelled_through_a_proxy(wrapped, clean_env, self_signed):
    cert, context = self_signed
    clean_env.setenv("REQUESTS_CA_BUNDLE", str(cert))
    server = BackendHTTPServer(wrapped, keep_alive=True, tls=context)
    with server, ForwardingProxy() as proxy:
        clean_env.setenv("HTTPS_PROXY", proxy.url)
        remote = RemoteBackend(server.url)
        got = remote.forward_candidates([1, 2], [3, 4])
        for g, w in zip(got, wrapped.forward_candidates([1, 2], [3, 4])):
            np.testing.assert_allclose(g, w, atol=1e-12)
        assert proxy.targets == [server.url.removeprefix("https://")]
        assert server.connections == 1
        remote._session.close()
