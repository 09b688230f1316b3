"""Remote backend: wire-protocol round-trips and failure handling."""
from __future__ import annotations

import base64
import gc
import importlib.util
import math
import os
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
