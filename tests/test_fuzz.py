"""Fuzz the two input boundaries: the CLI's files and the remote wire protocol.

Each test feeds random, mostly near-valid documents in and asserts only the
contract: the CLI ends with a documented exit code, and the remote client
raises ``ProtocolError`` or hands out a checked output, for fuzzed JSON
bodies and for fuzzed HTTP framing around valid ones.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from ipsearch import ProtocolError, RemoteBackend, StrategyConfig, TinyTransformer
from ipsearch.backend import PROB_SUM_TOL
from ipsearch.cli import main
from ipsearch.core import BOOTSTRAP_STRATEGIES, PENALTY_FORMS, STRATEGIES

from wire_server import BackendHTTPServer, RawServer, wire_doc

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TINY = "tiny:42,64,16,2,2"
FUZZ = settings(
    max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)


def json_values(ints=st.integers(-3, 70)):
    """Any JSON document, NaN and the infinities included, small."""
    scalars = (
        st.none()
        | st.booleans()
        | ints
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.text(max_size=4)
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=8,
    )


# One file per example is fuzzed; the others are valid, so the fuzzed one
# reaches the decoder often. Token ids lie around the tiny model's
# vocabulary of 64, whose EOU is 63; [[0]] is the scripted demo's context.
token_ids = st.integers(-1, 65) | json_values()
utterances = st.lists(token_ids, max_size=4) | json_values()
records = st.fixed_dictionaries(
    {"id": st.sampled_from(["a", "b"]) | json_values()},
    optional={
        "context_tokens": st.lists(utterances, max_size=3) | json_values(),
        "context": st.lists(st.text(alphabet="ab <>", max_size=6) | json_values(), max_size=3),
    },
)
config_keys = st.sampled_from([f.name for f in dataclasses.fields(StrategyConfig)]) | st.text(max_size=4)
config_values = (
    st.integers(-2, 8)
    | st.floats(-0.5, 1.5)
    | st.sampled_from([*STRATEGIES, *PENALTY_FORMS, *BOOTSTRAP_STRATEGIES])
    | json_values(ints=st.integers(-3, 12))
)
DEMO = json.loads((FIXTURES / "scripted_demo.json").read_text())
VALID = {
    "input": ['{"id": "a", "context_tokens": [[0]]}', '{"id": "b", "context_tokens": [[1, 2], [3]]}'],
    "config": {"strategy": "ips", "m": 3, "bootstrap_k": 3, "max_new_tokens": 4},
    "vocab": None,
    "scripted": DEMO,
}
VOCAB = {"<unk>": 0, "a": 1, "b": 2}
FILES = {
    "input": st.lists(records.map(json.dumps) | st.text(max_size=12), min_size=1, max_size=3),
    "config": st.dictionaries(config_keys, config_values, max_size=5) | json_values(),
    "vocab": st.just(VOCAB)
    | st.dictionaries(st.sampled_from(list(VOCAB)) | st.text(max_size=3), token_ids, max_size=4)
    | json_values(),
    "scripted": st.one_of(
        st.builds(lambda key, value: {**DEMO, key: value}, st.sampled_from(["info", "table"]), json_values()),
        st.builds(
            lambda i, key, value: {**DEMO, "table": [*DEMO["table"][:i], {**DEMO["table"][i], key: value}]},
            st.integers(0, len(DEMO["table"]) - 1),
            st.sampled_from(["prefix", "probs", "hidden_last", "hidden_all"]),
            json_values(),
        ),
        json_values(),
    ),
}


def _fuzzed(name: str, doc) -> dict:
    files = {**VALID, name: doc}
    if name == "vocab":  # a vocabulary reads text contexts; "zz" is <unk>, 0
        files["input"] = ['{"id": "a", "context": ["zz"]}', '{"id": "b", "context": ["a b", "c"]}']
    return files


# The input file, the most varied, is fuzzed twice as often as each other.
fuzzed_files = st.sampled_from(["input", *FILES]).flatmap(
    lambda name: FILES[name].map(lambda doc: _fuzzed(name, doc))
)


@given(
    files=fuzzed_files,
    backend=st.sampled_from(["tiny", "scripted"]),
    command=st.sampled_from(["generate", "compare", "heatmap"]),
)
@FUZZ
def test_cli_ends_every_input_with_a_documented_exit_code(files, backend, command):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        def write(name, doc):
            (tmp / name).write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
            return str(tmp / name)

        argv = [
            command,
            "--input", write("in.jsonl", "\n".join(files["input"])),
            "--output", str(tmp / "out"),
            "--backend", TINY if backend == "tiny" else "scripted:" + write("s.json", files["scripted"]),
            "--config", write("c.json", files["config"]),
        ]  # fmt: skip
        if files["vocab"] is not None:
            argv += ["--vocab", write("v.json", files["vocab"])]
        argv += {
            "generate": [],
            "compare": ["--strategies", "greedy,ips", "--seeds", "1"],
            "heatmap": ["--record-id", "a"],
        }[command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    event(f"exit {code}")
    assert code in {0, 2, 3, 4}


def _near(valid: dict):
    """``valid``, or it with one field replaced, dropped or added, or any JSON."""
    values = json_values(ints=st.integers(-2, 6))
    return st.one_of(
        st.just(valid),
        st.builds(lambda k, v: {**valid, k: v}, st.sampled_from([*valid, "x"]), values),
        st.sampled_from(list(valid)).map(lambda k: {f: v for f, v in valid.items() if f != k}),
        values,
    )


def _vectors(n: int):
    """n finite floats, or a list one longer or shorter, or one with a NaN or an infinity."""
    finite = st.floats(-2.0, 2.0)
    wild = finite | st.sampled_from([float("nan"), float("inf")])
    return st.lists(finite, min_size=n, max_size=n) | st.lists(wild, min_size=n - 1, max_size=n + 1)


# The served model has a vocabulary of 5 and hidden states of 3; one body per
# example is fuzzed, and the other paths answer from the model.
probs = st.sampled_from([[0.2] * 5, [1.0, 0, 0, 0, 0], [0.5, 0.5, 0, 0, 0.1]]) | _vectors(5)
BODIES = {
    "/info": _near({"vocab_size": 5, "hidden_dim": 3, "eou_token_id": 4}),
    "/forward": st.builds(lambda p, h: {"probs": p, "hidden_last": h}, probs, _vectors(3)).flatmap(_near),
    "/forward_batch": st.builds(lambda h: {"hidden": h}, st.lists(_vectors(3), max_size=3)).flatmap(_near),
}
fuzzed_bodies = st.sampled_from(list(BODIES)).flatmap(lambda path: BODIES[path].map(lambda doc: (path, doc)))


@pytest.fixture(scope="module")
def fuzzed_server():
    """A server that answers a path in ``answers`` with its document."""
    answers: dict = {}
    # transform(path, doc) is answers.get(path, doc): the model's own answer by default.
    with BackendHTTPServer(TinyTransformer(1, 5, 3, 1, 1), transform=answers.get, keep_alive=True) as server:
        yield server, answers


@given(body=fuzzed_bodies)
@FUZZ
def test_remote_client_refuses_or_checks_every_body(fuzzed_server, body):
    server, answers = fuzzed_server
    answers.clear()
    answers.update([body])
    try:
        remote = RemoteBackend(server.url)
    except ProtocolError:
        event("/info refused")
        return
    try:
        _check_replies(remote)
    finally:
        remote._session.close()  # the keep-alive connection


def _check_replies(remote: RemoteBackend) -> None:
    got = remote.info
    assert [type(x) for x in (got.vocab_size, got.hidden_dim, got.eou_token_id)] == [int, int, int]
    assert 0 <= got.eou_token_id < got.vocab_size and got.hidden_dim >= 1
    v, d = got.vocab_size, got.hidden_dim
    try:
        out = remote.forward([0, 1])
    except ProtocolError:
        event("/forward refused")
    else:
        event("/forward checked")
        assert out.probs.shape == (v,) and out.hidden_last.shape == (d,)
        assert np.isfinite(out.probs).all() and (out.probs >= 0).all()
        assert abs(out.probs.sum() - 1.0) <= PROB_SUM_TOL
        assert np.isfinite(out.hidden_last).all()
    try:
        rows = remote.forward_candidates([0], [0, 1])
    except ProtocolError:
        event("/forward_batch refused")
    else:
        event("/forward_batch checked")
        assert rows.shape == (2, d) and np.isfinite(rows).all()


# Raw responses: a valid body in fuzzed HTTP framing. The status line, header
# lines and chunk sizes are drawn near valid ones, and the bytes may be cut
# at any offset. Every call must hand out a checked output or raise
# ProtocolError or TimeoutError. The server closes the connection after each
# fuzzed response, so a client that waited for more bytes would see the end
# of the stream at once, not a timeout.
SERVED = TinyTransformer(1, 5, 3, 1, 1)
REQUESTS = {  # the requests _check_replies makes
    "/info": ("GET", b""),
    "/forward": ("POST", json.dumps({"tokens": [0, 1], "return_hidden": "last"}).encode()),
    "/forward_batch": ("POST", json.dumps({"prefix": [0], "candidates": [0, 1]}).encode()),
}
VALID_BODIES = {
    path: json.dumps(wire_doc(SERVED, method, path, body)).encode() for path, (method, body) in REQUESTS.items()
}
ends = st.sampled_from([b"\r\n", b"\n"])
status_lines = st.one_of(
    st.builds(
        lambda version, code, end: b"%s %s OK%s" % (version, code, end),
        st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/0.9", b"HTTP/2", b"HTTPS/1.1", b""]),
        st.sampled_from([b"200", b"204", b"304", b"101", b"500", b"2x0", b"99", b"1000", b""]),
        ends,
    ),
    st.just(b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n"),
    st.binary(max_size=12),
)


def _header_lines(length: int):
    names = st.sampled_from([b"Content-Length", b"Transfer-Encoding", b"Connection", b"Keep-Alive", b"X-A"])
    """Up to four header lines near valid ones, then none, a line at or one byte
    over the length limit, or 100 more lines, over the count limit."""
    names = st.sampled_from([b"Content-Length", b"Transfer-Encoding", b"Connection", b"Keep-Alive", b"X-A"])
    values = st.one_of(
        st.sampled_from([b"chunked", b"close", b"keep-alive", b"-1", b""]),
        st.integers(max(0, length - 2), length + 2).map(b"%d".__mod__),
        st.binary(max_size=6),
    )
    fields = st.lists(st.builds(lambda n, v, e: n + b": " + v + e, names, values, ends), max_size=4)
    long = [[b"X-Long: " + b"a" * n + b"\r\n"] for n in (65526, 65527)]
    limits = st.sampled_from([[], *long, [b"X: y\r\n"] * 100])
    return st.builds(lambda a, b: a + b, fields, limits)


# A chunk's size line for a chunk of n bytes: true, with an extension, one
# too large, or not a size.
size_lines = st.sampled_from(
    [lambda n: b"%x" % n, lambda n: b"%X;ext=1" % n, lambda n: b"%x" % (n + 1), lambda n: b"zz", lambda n: b""]
)


def _chunked(body: bytes):
    """``body`` in up to four chunks, then the last chunk and maybe a trailer field."""

    def frame(cuts, sizes, trailer):
        edges = sorted({0, len(body), *cuts})
        chunks = [body[a:b] for a, b in zip(edges, edges[1:])]
        lines = [size(len(chunk)) + b"\r\n" + chunk + b"\r\n" for chunk, size in zip(chunks, sizes)]
        return b"".join(lines) + b"0\r\n" + trailer + b"\r\n"

    return st.builds(
        frame,
        st.lists(st.integers(0, len(body)), max_size=3),
        st.lists(size_lines, min_size=4, max_size=4),
        st.sampled_from([b"", b"X-Trailer: t\r\n"]),
    )


def _raw_responses(body: bytes):
    framings = st.sampled_from(["length", "chunked", "to the end"]).flatmap(
        lambda how: {
            "length": st.just((b"Content-Length: %d\r\n" % len(body), body)),
            "chunked": _chunked(body).map(lambda chunks: (b"Transfer-Encoding: chunked\r\n", chunks)),
            "to the end": st.just((b"", body)),
        }[how]
    )
    raw = st.builds(
        lambda status, framing, lines, end: status + framing[0] + b"".join(lines) + end + framing[1],
        status_lines, framings, _header_lines(len(body)), ends,
    )  # fmt: skip
    return raw.flatmap(lambda data: st.one_of(st.just(data), st.integers(0, len(data)).map(lambda n: data[:n])))


fuzzed_responses = st.sampled_from(list(VALID_BODIES)).flatmap(
    lambda path: _raw_responses(VALID_BODIES[path]).map(lambda data: (path, data))
)


@pytest.fixture(scope="module")
def raw_server():
    """A server that answers the path in ``raw`` with its bytes, then closes,
    and every other path with the served model's document, kept alive."""
    raw: dict = {}

    def answer(method, path, body):
        if path in raw:
            return raw[path], True
        doc = json.dumps(wire_doc(SERVED, method, path, body)).encode()
        return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(doc), doc), False

    with RawServer(answer) as server:
        yield server, raw


@given(response=fuzzed_responses)
@FUZZ
def test_remote_client_refuses_or_checks_every_framing(raw_server, response):
    server, raw = raw_server
    raw.clear()
    raw.update([response])
    try:
        remote = RemoteBackend(server.url, timeout=5)
    except ProtocolError:
        event("/info refused")
        return
    except TimeoutError:
        event("/info timed out")
        return
    try:
        _check_replies(remote)
    except TimeoutError:
        event("timed out")
    finally:
        remote._session.close()
