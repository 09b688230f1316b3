"""Remote backend: wire-protocol round-trips and failure handling."""
from __future__ import annotations

import base64
import gc
import importlib.util
import json
import math
import os
import re
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import ipsearch
from ipsearch import (
    ArgumentError,
    DialogueContext,
    ProtocolError,
    RemoteBackend,
    StrategyConfig,
    TinyTransformer,
    VocabError,
    generate,
)
from ipsearch.backend import _connection

from conftest import count_passes
from wire_server import HANGUP, BackendHTTPServer, ForwardingProxy, RawBody, RawServer, wire_doc

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


def test_server_encodes_a_prefix_once_per_ips_token(monkeypatch):
    # Each /forward_batch probes the prefix of the /forward just before it,
    # which the server's model has kept: one sequence pass and one probe
    # per token, over the same 2 requests per token.
    model = TinyTransformer(**SMALL)
    passes = count_passes(monkeypatch, model)
    with BackendHTTPServer(model) as server:
        remote = RemoteBackend(server.url)
        cfg = StrategyConfig(strategy="ips", bootstrap_n=2, max_new_tokens=8, seed=1)
        result = generate(remote, DialogueContext([[5, 6], [7, 8, 9]]), cfg)
    assert len(result.tokens) == 8
    assert server.requests == {"/info": 1, "/forward": 8, "/forward_batch": 8}
    assert passes == {"causal": 8, "probe": 8}


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


def test_no_proxy_matches_an_ipv6_endpoint(proxy_env):
    proxy_env.setenv("NO_PROXY", "::1")
    conn, target, _ = _connection("http://[::1]:8080/v1", 1.0)  # not opened
    assert (conn.host, conn.port, target) == ("::1", 8080, "/v1")


def test_unreachable_endpoint_fails_at_startup():
    with pytest.raises(ProtocolError):
        RemoteBackend("http://127.0.0.1:1")


@pytest.mark.parametrize("endpoint", [
    "ftp://x", "", "http:///nohost", "http://a b", "http://h:99999", "http://h:x", "http://[::1",
    "{raw}/a b", "{raw}/a\tb", "{raw}/api?x=1", "{raw}?x=1", "{raw}/#top", "http://" + "a" * 64 + ".com",
])
def test_an_unusable_endpoint_is_refused_before_any_connection(endpoint):
    # An ArgumentError names the endpoint. A query or fragment would be
    # dropped from every request target, and urlsplit drops a tab unseen.
    with RawServer(lambda method, path, body: (b"", True)) as server:
        url = endpoint.format(raw=server.url)
        with pytest.raises(ArgumentError, match=f"endpoint {re.escape(repr(url))} is not an http or https URL"):
            RemoteBackend(url, timeout=5)
    assert server.connections == 0


@pytest.mark.parametrize("endpoint", [None, 5, b"http://x"], ids=repr)
def test_an_endpoint_that_is_not_a_string_is_refused_before_any_connection(monkeypatch, endpoint):
    monkeypatch.setattr(ipsearch.backend, "_connection", lambda *args: pytest.fail("connected"))
    message = f"^endpoint {re.escape(repr(endpoint))} is not an http or https URL"
    with pytest.raises(ArgumentError, match=message):
        RemoteBackend(endpoint)


def test_timeout(wrapped):
    with BackendHTTPServer(wrapped, delay=0.5) as server:
        with pytest.raises(TimeoutError):
            RemoteBackend(server.url, timeout=0.05)


def test_bad_timeout_is_refused_before_connecting(wrapped):
    with BackendHTTPServer(wrapped) as server:
        for timeout in (0, -1, 0.0, float("nan"), float("inf"), "x", None, True):
            with pytest.raises(ArgumentError, match="^timeout"):
                RemoteBackend(server.url, timeout=timeout)
        assert server.connections == 0
        assert RemoteBackend(server.url, timeout=5).info == wrapped.info  # an int is seconds too


def test_timeout_above_the_socket_limit_is_refused_before_connecting(wrapped):
    # threading.TIMEOUT_MAX is a timeout a socket takes; 1e10 s overflows
    # the socket's clock.
    limit = threading.TIMEOUT_MAX
    with socket.socket() as sock:
        sock.settimeout(limit)
        with pytest.raises(OverflowError):
            sock.settimeout(1e10)
    with BackendHTTPServer(wrapped) as server:
        for timeout in (1e10, math.nextafter(limit, math.inf), 10**30):
            with pytest.raises(ArgumentError, match="^timeout"):
                RemoteBackend(server.url, timeout=timeout)
        assert server.connections == 0
        assert RemoteBackend(server.url, timeout=limit).info == wrapped.info


@pytest.mark.parametrize(
    "bad_info, message",
    [
        (lambda doc: RawBody(b"{}", status=500), "HTTP 500"),
        (lambda doc: {k: v for k, v in doc.items() if k != "hidden_dim"}, "hidden_dim"),
    ],
    ids=["status 500", "no hidden_dim"],
)
def test_failed_handshake_closes_the_connection(wrapped, bad_info, message):
    def transform(path, doc):
        return bad_info(doc) if path == "/info" else doc

    with BackendHTTPServer(wrapped, transform=transform, keep_alive=True) as server:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ProtocolError, match=message):
                RemoteBackend(server.url)
            gc.collect()  # the half-built client is garbage now
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


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


def test_benchmark_wire_server_serves_an_ips_reply_on_one_connection(monkeypatch):
    """The remote-ips benchmark's path: its own server module, loaded from
    its file without writing bytecode, serves the benchmark's small model;
    the reply matches in-process decoding, and closing as the benchmark
    does leaves one connection."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "wire.py"
    spec = importlib.util.spec_from_file_location("perfbench_wire", path)
    wire = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(wire)
    model = TinyTransformer(42, 64, 16, 2, 2)
    ctx = DialogueContext([[5, 6], [7, 8, 9]])
    cfg = StrategyConfig(strategy="ips", max_new_tokens=8, seed=1)
    server = wire.WireServer(model)
    try:
        backend = RemoteBackend(server.url)
        try:
            assert generate(backend, ctx, cfg).tokens == generate(model, ctx, cfg).tokens
        finally:
            backend._session.close()
    finally:
        server.close()
    assert server.connections == 1
    assert server.requests > 0


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


# The framing of the exchange, byte by byte, against a server of raw bytes:
# the requests the client sends, and the responses it reads.


def _keep_alive(body: bytes, *headers: str) -> tuple[bytes, bool]:
    """An HTTP/1.1 200 with a Content-Length and ``headers``; the connection stays open."""
    extra = "".join(f"{h}\r\n" for h in headers)
    return f"HTTP/1.1 200 OK\r\nContent-Length: {len(body)}\r\n{extra}\r\n".encode() + body, False


def _answers(model, forward=_keep_alive):
    """A ``RawServer`` answer: ``model``'s document for each request, the last
    path segment naming the request, framed by ``forward`` on /forward and as
    a keep-alive 200 on every other path."""

    def answer(method, path, body):
        path = "/" + path.rsplit("/", 1)[1]
        doc = json.dumps(wire_doc(model, method, path, body)).encode()
        return (forward if path == "/forward" else _keep_alive)(doc)

    return answer


@pytest.mark.parametrize(
    "endpoint, proxy, requests",
    [
        ("{server}", None, [
            "GET /info HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
            "Content-Type: application/json\r\nAccept: application/json\r\n\r\n",
            "POST /forward HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\nContent-Length: 43\r\n"
            "Content-Type: application/json\r\nAccept: application/json\r\n\r\n"
            '{{"tokens": [1, 2], "return_hidden": "last"}}',
            "POST /forward_batch HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\nContent-Length: 37\r\n"
            "Content-Type: application/json\r\nAccept: application/json\r\n\r\n"
            '{{"prefix": [3], "candidates": [4, 5]}}',
        ]),
        ("http://u:p%40ss@{host}/v1/", None, [
            "GET /v1/info HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
            "Content-Type: application/json\r\nAccept: application/json\r\nAuthorization: Basic dTpwQHNz\r\n\r\n",
            "POST /v1/forward HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\nContent-Length: 43\r\n"
            "Content-Type: application/json\r\nAccept: application/json\r\nAuthorization: Basic dTpwQHNz\r\n\r\n"
            '{{"tokens": [1, 2], "return_hidden": "last"}}',
            "POST /v1/forward_batch HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\nContent-Length: 37\r\n"
            "Content-Type: application/json\r\nAccept: application/json\r\nAuthorization: Basic dTpwQHNz\r\n\r\n"
            '{{"prefix": [3], "candidates": [4, 5]}}',
        ]),
        # The raw server is the proxy; model.test is never looked up.
        ("http://Model.test:8080/v1", "http://pat:s%40cret@{host}", [
            "GET http://Model.test:8080/v1/info HTTP/1.1\r\nHost: Model.test:8080\r\nAccept-Encoding: identity\r\n"
            "Content-Type: application/json\r\nAccept: application/json\r\n"
            "Proxy-Authorization: Basic cGF0OnNAY3JldA==\r\n\r\n",
            "POST http://Model.test:8080/v1/forward HTTP/1.1\r\nHost: Model.test:8080\r\nAccept-Encoding: identity\r\n"
            "Content-Length: 43\r\nContent-Type: application/json\r\nAccept: application/json\r\n"
            "Proxy-Authorization: Basic cGF0OnNAY3JldA==\r\n\r\n"
            '{{"tokens": [1, 2], "return_hidden": "last"}}',
            "POST http://Model.test:8080/v1/forward_batch HTTP/1.1\r\nHost: Model.test:8080\r\n"
            "Accept-Encoding: identity\r\nContent-Length: 37\r\nContent-Type: application/json\r\n"
            "Accept: application/json\r\nProxy-Authorization: Basic cGF0OnNAY3JldA==\r\n\r\n"
            '{{"prefix": [3], "candidates": [4, 5]}}',
        ]),
        ("http://u:pw@model.test", "{host}", [
            "GET http://model.test/info HTTP/1.1\r\nHost: model.test\r\nAccept-Encoding: identity\r\n"
            "Content-Type: application/json\r\nAccept: application/json\r\nAuthorization: Basic dTpwdw==\r\n\r\n",
            "POST http://model.test/forward HTTP/1.1\r\nHost: model.test\r\nAccept-Encoding: identity\r\n"
            "Content-Length: 43\r\nContent-Type: application/json\r\nAccept: application/json\r\n"
            "Authorization: Basic dTpwdw==\r\n\r\n"
            '{{"tokens": [1, 2], "return_hidden": "last"}}',
            "POST http://model.test/forward_batch HTTP/1.1\r\nHost: model.test\r\nAccept-Encoding: identity\r\n"
            "Content-Length: 37\r\nContent-Type: application/json\r\nAccept: application/json\r\n"
            "Authorization: Basic dTpwdw==\r\n\r\n"
            '{{"prefix": [3], "candidates": [4, 5]}}',
        ]),
    ],
    ids=["plain", "credentials in the URL", "http proxy with credentials", "credentials through a proxy"],
)  # fmt: skip
def test_requests_are_the_bytes_http_client_sent(wrapped, clean_env, tmp_path, endpoint, proxy, requests):
    clean_env.setenv("NETRC", str(tmp_path / "no-netrc"))
    with RawServer(_answers(wrapped)) as server:
        host = server.url.removeprefix("http://")
        if proxy is not None:
            clean_env.setenv("HTTP_PROXY", proxy.format(host=host))
        remote = RemoteBackend(endpoint.format(server=server.url, host=host))
        remote.forward([1, 2])
        remote.forward_candidates([3], [4, 5])
        remote._session.close()
    assert server.requests == [r.format(host=host).encode() for r in requests]
    assert server.connections == 1


def _chunked(body: bytes) -> tuple[bytes, bool]:
    # Two chunks, the first with an extension, the second's size in upper
    # case, then a trailer field.
    return (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        + b"7;name=value\r\n%s\r\n%X\r\n%s\r\n" % (body[:7], len(body) - 7, body[7:])
        + b"0\r\nX-Checksum: none\r\n\r\n",
        False,
    )


def _until_close(body: bytes) -> tuple[bytes, bool]:
    # HTTP/1.0 without a Content-Length: the body ends where the server closes.
    return b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + body, True


def _http10(*headers: str):
    """An HTTP/1.0 200 with a Content-Length and ``headers``; the server leaves
    the connection open, so only the client's reading closes it."""

    def frame(body: bytes) -> tuple[bytes, bool]:
        data, close = _keep_alive(body, *headers)
        return data.replace(b"HTTP/1.1", b"HTTP/1.0", 1), close

    return frame


def _connection_close(body: bytes) -> tuple[bytes, bool]:
    # The server says it closes, but leaves the connection open: only the
    # client's reading of the header makes the next call reconnect.
    return _keep_alive(body, "Connection: close")


def _after_continue(body: bytes) -> tuple[bytes, bool]:
    data, close = _keep_alive(body)
    return b"HTTP/1.1 100 Continue\r\nX-Interim: yes\r\n\r\n" + data, close


def _limits(body: bytes) -> tuple[bytes, bool]:
    # http.client's limits, met exactly: a 65 536-byte line and 99 fields.
    long = "X-Long: " + "a" * (65536 - len("X-Long: \r\n"))
    return _keep_alive(body, long, *(f"X-{i}: {i}" for i in range(97)))


@pytest.mark.parametrize(
    "frame, connections",
    [
        (_chunked, 1),
        (_until_close, 2),
        (_http10(), 2),
        (_http10("Connection: Keep-Alive"), 1),
        (_connection_close, 2),
        (_after_continue, 1),
        (_limits, 1),
    ],
    ids=[
        "chunked", "close-delimited HTTP/1.0", "HTTP/1.0", "HTTP/1.0 keep-alive", "Connection: close",
        "100 Continue", "at the limits",
    ],  # fmt: skip
)
def test_response_framings_are_read(wrapped, frame, connections):
    with RawServer(_answers(wrapped, frame)) as server:
        remote = RemoteBackend(server.url)
        for prefix in ([1, 2], [3, 4, 5]):
            got = remote.forward(prefix)
            want = wrapped.forward(prefix)
            np.testing.assert_allclose(got.probs, want.probs, atol=1e-12)
            np.testing.assert_allclose(got.hidden_last, want.hidden_last, atol=1e-12)
        remote._session.close()
    assert len(server.requests) == 3
    assert server.connections == connections


@pytest.mark.parametrize(
    "frame, close",
    [
        (lambda body: b"HTTP/1.1 2x0 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body), False),
        (lambda body: b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n%s\r\n0\r\n\r\n" % body, False),
        (lambda body: b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body) + 1, body), True),
        (lambda body: _keep_alive(body, "X-Long: " + "a" * (65537 - len("X-Long: \r\n")))[0], False),
        (lambda body: b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70000, False),
        (lambda body: _keep_alive(body, *(f"X-{i}: {i}" for i in range(100)))[0], False),
    ],
    ids=[
        "malformed status line", "bad chunk size", "short body", "65 537-byte header line",
        "header line without an end", "101 headers",
    ],
)  # fmt: skip
def test_malformed_responses_are_refused(wrapped, frame, close):
    # Only the short body needs the end of the stream to be found short; the
    # others must be refused while the server still holds the connection open.
    with RawServer(_answers(wrapped, lambda body: (frame(body), close))) as server:
        remote = RemoteBackend(server.url)
        with pytest.raises(ProtocolError, match="^POST .*/forward failed"):
            remote.forward([1, 2])
        got = remote.forward_candidates([1, 2], [3])  # a fresh connection after the failure
        np.testing.assert_allclose(got, wrapped.forward_candidates([1, 2], [3]), atol=1e-12)
        remote._session.close()
    assert server.connections == 2


def test_a_reset_after_the_status_line_is_not_resent(wrapped):
    # Only a reused connection that fails before a status line arrives is
    # resent; this one is reused, and fails after it.
    served = []

    def frame(body):
        served.append(body)
        return (b"HTTP/1.1 200 OK\r\n", "reset") if len(served) > 1 else _keep_alive(body)

    with RawServer(_answers(wrapped, frame)) as server:
        remote = RemoteBackend(server.url)
        remote.forward([1, 2])
        with pytest.raises(ProtocolError, match="^POST .*/forward failed"):
            remote.forward([1, 2])
        remote._session.close()
    assert len(served) == 2


@pytest.mark.parametrize(
    "head",
    [b"Content-Length: 1000000000000", b"Transfer-Encoding: chunked\r\n\r\nffffffffff"],
    ids=["length", "chunk size"],
)
def test_a_false_length_is_refused_without_allocating_it(wrapped, head):
    # A terabyte is claimed and a few bytes follow; reading the claim in one
    # allocation raises MemoryError, which is not the documented error.
    def frame(body):
        return b"HTTP/1.1 200 OK\r\n%s\r\n\r\n%s" % (head, body), True

    with RawServer(_answers(wrapped, frame)) as server:
        remote = RemoteBackend(server.url)
        with pytest.raises(ProtocolError, match="^POST .*/forward failed: IncompleteRead"):
            remote.forward([1, 2])
        remote._session.close()


@pytest.mark.parametrize("status", [101, 204, 304])
def test_a_status_without_a_body_keeps_the_connection(wrapped, status):
    # No Content-Length, and the server holds the connection open: a client
    # that read a body here would wait for its end.
    with RawServer(_answers(wrapped, lambda body: (b"HTTP/1.1 %d X\r\n\r\n" % status, False))) as server:
        remote = RemoteBackend(server.url, timeout=5)
        with pytest.raises(ProtocolError, match=f"returned HTTP {status}$"):
            remote.forward([1, 2])
        got = remote.forward_candidates([1, 2], [3])
        np.testing.assert_allclose(got, wrapped.forward_candidates([1, 2], [3]), atol=1e-12)
        remote._session.close()
    assert server.connections == 1


# The environment settings the client reads: proxies, .netrc and CA bundles.


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


@pytest.mark.parametrize("name, scheme", [("ALL_PROXY", "http://"), ("HTTP_PROXY", "")])
def test_http_proxy_from_all_proxy_or_without_a_scheme(wrapped, clean_env, name, scheme):
    # ALL_PROXY serves a scheme that has no proxy of its own; a proxy given as
    # host:port is an http:// one.
    with BackendHTTPServer(wrapped) as server, ForwardingProxy() as proxy:
        clean_env.setenv(name, scheme + proxy.url.removeprefix("http://"))
        RemoteBackend(server.url).forward([1, 2])
        assert proxy.targets == [server.url + "/info", server.url + "/forward"]
        assert server.requests == {"/info": 1, "/forward": 1}


def test_unsupported_proxy_scheme_fails_at_construction(wrapped, clean_env):
    clean_env.setenv("HTTP_PROXY", "socks5://127.0.0.1:1")
    with BackendHTTPServer(wrapped) as server:
        with pytest.raises(ProtocolError, match="unsupported proxy"):
            RemoteBackend(server.url)
        assert server.requests == {}


def test_endpoint_credentials_are_sent_percent_decoded(wrapped, clean_env, tmp_path):
    clean_env.setenv("NETRC", str(tmp_path / "no-netrc"))
    with BackendHTTPServer(wrapped) as server:
        RemoteBackend(server.url.replace("http://", "http://u:p%40ss@")).forward([1])
        assert [h.get("Authorization") for h in server.request_headers] == [_basic("u", "p@ss")] * 2


def test_https_trusts_curl_ca_bundle_when_requests_ca_bundle_is_unset(wrapped, clean_env, self_signed):
    cert, context = self_signed
    clean_env.setenv("CURL_CA_BUNDLE", str(cert))
    with BackendHTTPServer(wrapped, tls=context) as server:
        got = RemoteBackend(server.url).forward([1, 2])
        np.testing.assert_allclose(got.probs, wrapped.forward([1, 2]).probs, atol=1e-12)


@pytest.mark.parametrize("name", ["REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"])
def test_missing_ca_bundle_fails_at_construction(clean_env, tmp_path, name):
    # The bundle is loaded before any connection is tried, so the error names
    # the missing file rather than the closed port.
    clean_env.setenv(name, str(tmp_path / "missing.pem"))
    with pytest.raises(ProtocolError, match="No such file"):
        RemoteBackend("https://127.0.0.1:1")


def test_threads_share_one_instance_over_one_connection(wrapped):
    # Each exchange holds the connection: without the lock, the threads'
    # requests interleave on it and http.client raises. More threads than
    # cores, and a short switch interval, make the interleaving likely.
    contexts = [DialogueContext([[3 + i, 9], [20 + i]]) for i in range(8)]
    cfg = StrategyConfig(strategy="ips", bootstrap_n=1, max_new_tokens=6, seed=2)
    with BackendHTTPServer(wrapped, keep_alive=True) as server:
        remote = RemoteBackend(server.url)
        want = [generate(remote, ctx, cfg).tokens for ctx in contexts]
        names = "abc"
        start = threading.Barrier(len(names), timeout=30)
        got: dict = {}

        def decode(name):
            start.wait()
            try:
                got[name] = [generate(remote, ctx, cfg).tokens for ctx in contexts]
            except Exception as exc:  # compared below
                got[name] = exc

        threads = [threading.Thread(target=decode, args=(name,)) for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {name: want for name in names}
        assert server.connections == 1
        remote._session.close()


def test_importing_the_package_loads_no_third_party_http_library():
    src = str(Path(ipsearch.__file__).parents[1])
    code = (
        "import sys, ipsearch\n"
        "from ipsearch import cli\n"
        "cli.build_backend('tiny:42,64,16,2,2')\n"
        "print(sorted({'requests', 'urllib3'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
