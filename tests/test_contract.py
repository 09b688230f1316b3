"""One backend contract: scripted tables and remote responses are checked by
the same rules, and every backend checks candidate arguments the same way."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from ipsearch import (
    ArgumentError,
    BackendInfo,
    ProtocolError,
    RemoteBackend,
    ScriptedBackend,
    Session,
    StepOutput,
    TinyTransformer,
    ValidationError,
    VocabError,
    load_scripted,
)

from wire_server import BackendHTTPServer

SMALL = dict(seed=42, vocab_size=64, hidden_dim=16, layers=1, heads=2)


def _set(field, value):
    def edit(doc):
        doc[field] = value(doc)

    return edit


def _set_row(index, value):
    def edit(doc):
        doc["hidden_all"][index] = value(doc["hidden_all"][index])

    return edit


def _shift_probs(doc):
    p = doc["probs"]
    doc["probs"] = [-0.1, p[0] + p[1] + 0.1] + p[2:]


# Each case edits a valid output document {"probs", "hidden_last",
# "hidden_all"} of any vocabulary size and hidden width; the error message
# must name the field.
MALFORMED = {
    "probs-wrong-length": ("probs", _set("probs", lambda d: d["probs"][:-1])),
    "probs-nan": ("probs", _set("probs", lambda d: [math.nan] + d["probs"][1:])),
    "probs-negative": ("probs", _shift_probs),
    "probs-sum-off": ("probs", _set("probs", lambda d: [d["probs"][0] + 2e-4] + d["probs"][1:])),
    "hidden_last-wrong-length": ("hidden_last", _set("hidden_last", lambda d: d["hidden_last"] + [0.0])),
    "hidden_all-wrong-rows": ("hidden_all", _set("hidden_all", lambda d: d["hidden_all"][:-1])),
    "hidden_all-ragged-row": ("hidden_all", _set_row(0, lambda row: row[:-1])),
    "hidden_all-nan": ("hidden_all", _set_row(-1, lambda row: [math.nan] + row[1:])),
    "hidden_all-non-numeric": ("hidden_all", _set_row(0, lambda row: ["x"] + row[1:])),
}


@pytest.fixture(scope="module")
def tiny():
    return TinyTransformer(**SMALL)


@pytest.fixture(scope="module")
def remote(tiny):
    with BackendHTTPServer(tiny) as server:
        yield RemoteBackend(server.url)


@pytest.mark.parametrize("case", list(MALFORMED))
def test_scripted_table_rejects_malformed_output(case):
    field, edit = MALFORMED[case]
    info = BackendInfo(vocab_size=4, hidden_dim=2, eou_token_id=3)
    doc = {
        "probs": [0.7, 0.2, 0.1, 0.0],
        "hidden_last": [0.0, 1.0],
        "hidden_all": [[1.0, 0.0], [0.0, 1.0]],
    }
    ScriptedBackend(info, {(1, 2): StepOutput(**doc)})  # the unedited entry is valid
    edit(doc)
    with pytest.raises(ValidationError, match=field):
        ScriptedBackend(info, {(1, 2): StepOutput(**doc)})


@pytest.mark.parametrize("case", list(MALFORMED))
def test_remote_response_rejects_malformed_output(tiny, case):
    field, edit = MALFORMED[case]

    def transform(path, doc):
        if path == "/forward":
            edit(doc)
        return doc

    with BackendHTTPServer(tiny, transform=transform) as server:
        remote = RemoteBackend(server.url)
        with pytest.raises(ProtocolError, match=field):
            remote.forward([1, 2], want_all_hidden=True)


@pytest.mark.parametrize(
    "edit",
    [lambda rows: rows[:-1], lambda rows: [rows[0][:-1]] + rows[1:]],
    ids=["too-few-rows", "ragged-row"],
)
def test_remote_forward_batch_rejects_malformed_hidden(tiny, edit):
    def transform(path, doc):
        if path == "/forward_batch":
            doc["hidden"] = edit(doc["hidden"])
        return doc

    with BackendHTTPServer(tiny, transform=transform) as server:
        remote = RemoteBackend(server.url)
        with pytest.raises(ProtocolError, match="hidden"):
            remote.forward_candidates([1, 2], [3, 4, 5])


def test_scripted_file_with_non_numeric_entry_is_a_validation_error(tmp_path, tiny):
    out = tiny.forward([1, 2])
    hidden_last = ["x"] + [float(h) for h in out.hidden_last[1:]]
    doc = {"probs": [float(p) for p in out.probs], "hidden_last": hidden_last}
    info = {"vocab_size": 64, "hidden_dim": 16, "eou_token_id": 63}
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"info": info, "table": [{"prefix": [1, 2], **doc}]}))
    with pytest.raises(ValidationError, match="hidden_last"):
        load_scripted(path)


# A backend info field that is not a JSON integer is refused, not truncated.
BAD_INFO = {
    "float": ("vocab_size", 64.9),
    "string": ("hidden_dim", "16"),
    "bool": ("eou_token_id", True),
    "null": ("vocab_size", None),
}


@pytest.mark.parametrize("case", list(BAD_INFO))
def test_remote_info_must_hold_integers(tiny, case):
    field, value = BAD_INFO[case]

    def transform(path, doc):
        if path == "/info":
            doc[field] = value
        return doc

    with BackendHTTPServer(tiny, transform=transform) as server:
        with pytest.raises(ProtocolError, match=field):
            RemoteBackend(server.url)


@pytest.mark.parametrize("case", list(BAD_INFO))
def test_scripted_file_info_must_hold_integers(tmp_path, tiny, case):
    field, value = BAD_INFO[case]
    out = tiny.forward([1, 2])
    entry = {
        "prefix": [1, 2],
        "probs": [float(p) for p in out.probs],
        "hidden_last": [float(h) for h in out.hidden_last],
    }
    info = {"vocab_size": 64, "hidden_dim": 16, "eou_token_id": 63}
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"info": info, "table": [entry]}))
    load_scripted(path)  # the unedited file is valid
    path.write_text(json.dumps({"info": {**info, field: value}, "table": [entry]}))
    with pytest.raises(ValidationError, match=field):
        load_scripted(path)
    path.write_text(json.dumps({"info": info, "table": [{**entry, "prefix": [1, value]}]}))
    with pytest.raises(ValidationError, match="prefix id"):
        load_scripted(path)


def _outcome(call):
    """What a call gives: its rows, or its error's type and message."""
    try:
        return call()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def _vocab(kind, token):
    return VocabError, f"{kind} id {token!r} outside vocabulary of size 64"


@pytest.mark.parametrize(
    "prefix, candidates, error",
    [
        ([2], [], (ArgumentError, "candidates must be non-empty")),
        ([2], [5, 64], _vocab("candidate", 64)),
        ([2], [5, 2.5], _vocab("candidate", 2.5)),
        ([2, 64], [5], _vocab("token", 64)),
        ([2, 70], [99], _vocab("candidate", 99)),  # candidates are checked first
        ([], [5, 7], None),  # empty prefix: each candidate on its own
        ([], np.array([5, 7]), None),  # a numpy array is a sequence of ids
        ([2, 64], np.array([0]), _vocab("token", 64)),
        ([2], np.array([], dtype=int), (ArgumentError, "candidates must be non-empty")),
    ],
)
@pytest.mark.parametrize("kind", ["scripted", "tiny", "remote"])
def test_candidate_arguments_agree_across_backends(tiny, remote, kind, prefix, candidates, error):
    scripted = ScriptedBackend(tiny.info, {(c,): tiny.forward([c]) for c in (5, 7)})
    backend = {"scripted": scripted, "tiny": tiny, "remote": remote}[kind]
    got = _outcome(lambda: backend.forward_candidates(prefix, candidates))
    if error is not None:
        assert got == error
        assert _outcome(lambda: Session(backend, list(prefix)).probe(candidates)) == error
    else:
        assert len(got) == len(candidates)
        for g, w in zip(got, tiny.forward_candidates(prefix, candidates)):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


class LoggedScripted(ScriptedBackend):
    """``ScriptedBackend`` that logs the prefix of each ``forward``."""

    def __init__(self, info, table):
        super().__init__(info, table)
        self.prefixes = []

    def forward(self, prefix, want_all_hidden=False):
        self.prefixes.append([int(t) for t in prefix])
        return super().forward(prefix, want_all_hidden)


@pytest.mark.parametrize("via", ["forward_candidates", "/forward_batch"])
def test_a_probe_needs_no_table_entry_for_its_prefix(tiny, via):
    # The table holds the probed sequences but not the prefix [2]: opening a
    # session runs nothing, so the probe makes one forward per candidate and
    # none on the prefix, in process and behind the wire server alike.
    table = {(2, c): tiny.forward([2, c]) for c in (5, 7)}
    scripted = LoggedScripted(tiny.info, table)
    if via == "forward_candidates":
        rows = scripted.forward_candidates([2], [5, 7])
    else:
        with BackendHTTPServer(scripted) as server:
            rows = RemoteBackend(server.url).forward_candidates([2], [5, 7])
            assert server.requests["/forward_batch"] == 1
    assert [h.tobytes() for h in rows] == [table[(2, c)].hidden_last.tobytes() for c in (5, 7)]
    assert scripted.prefixes == [[2, 5], [2, 7]]


# Token ids: an int or a numpy integer, never a bool, numpy's bool_ or a
# float that equals an int.

NOT_TOKEN_IDS = [True, False, np.True_, np.False_, 1.0]


def _backend(kind, tiny, remote):
    prefixes = [(2,), (2, 0), (2, 1), (1,)]
    scripted = ScriptedBackend(tiny.info, {p: tiny.forward(list(p), want_all_hidden=True) for p in prefixes})
    return {"scripted": scripted, "tiny": tiny, "remote": remote}[kind]


# Hidden states: one float64 matrix per call, whose row i is the hidden state
# of the i-th position or candidate. What a backend or a session hands out
# is read-only, so nothing a caller writes reaches a later answer.

KINDS = ("scripted", "tiny", "remote")

HIDDEN_CONTRACT = {
    # entry point: (call on a backend and its session after [2], the prefixes
    # whose last hidden states are the rows)
    "forward hidden_all": (lambda b, s: b.forward([2, 1], want_all_hidden=True).hidden_all, [[2], [2, 1]]),
    "forward_candidates": (lambda b, s: b.forward_candidates([2], [0, 1]), [[2, 0], [2, 1]]),
    "open hidden_all": (lambda b, s: s.hidden_all, [[2]]),
    "probe": (lambda b, s: s.probe([0, 1]), [[2, 0], [2, 1]]),
    "extend hidden_all": (lambda b, s: s.extend(1).hidden_all, [[2], [2, 1]]),
}


@pytest.mark.parametrize("entry", list(HIDDEN_CONTRACT))
@pytest.mark.parametrize("kind", KINDS)
def test_hidden_states_are_one_float64_matrix(tiny, remote, kind, entry):
    call, row_prefixes = HIDDEN_CONTRACT[entry]
    backend = _backend(kind, tiny, remote)
    got = call(backend, backend.open([2]))
    assert type(got) is np.ndarray and got.dtype == np.float64
    assert got.shape == (len(row_prefixes), tiny.info.hidden_dim)
    want = np.array([tiny.forward(p).hidden_last for p in row_prefixes])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    assert not got.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        got[0] += 1.0


@pytest.mark.parametrize("bad", NOT_TOKEN_IDS, ids=repr)
@pytest.mark.parametrize("kind", ["scripted", "tiny", "remote"])
def test_every_entry_point_refuses_a_non_integer_token_id(tiny, remote, kind, bad):
    backend = _backend(kind, tiny, remote)
    session = backend.open([2])
    session.probe([0, 1])  # a probed 0 or 1 must not answer for False or True
    calls = {
        "forward": (lambda: backend.forward([2, bad]), "token"),
        "forward_candidates prefix": (lambda: backend.forward_candidates([bad], [1]), "token"),
        "forward_candidates candidate": (lambda: backend.forward_candidates([2], [bad]), "candidate"),
        "probe": (lambda: session.probe([0, bad]), "candidate"),
        "extend": (lambda: session.extend(bad), "token"),
    }
    for name, (call, kind_) in calls.items():
        assert _outcome(call) == _vocab(kind_, bad), name


@pytest.mark.parametrize("kind", ["scripted", "tiny", "remote"])
def test_numpy_integer_token_ids_act_as_ints(tiny, remote, kind):
    backend = _backend(kind, tiny, remote)
    i64, u8 = np.int64, np.uint8
    got, want = backend.forward([i64(2), u8(1)], want_all_hidden=True), backend.forward([2, 1], want_all_hidden=True)
    assert got.probs.tobytes() == want.probs.tobytes()
    assert [h.tobytes() for h in got.hidden_all] == [h.tobytes() for h in want.hidden_all]
    rows = backend.forward_candidates([i64(2)], [u8(0), i64(1)])
    assert [h.tobytes() for h in rows] == [h.tobytes() for h in backend.forward_candidates([2], [0, 1])]
    session = backend.open([i64(2)])
    assert [h.tobytes() for h in session.probe([u8(1)])] == [h.tobytes() for h in backend.open([2]).probe([1])]
    for token in (i64(1), u8(0)):  # probed, then not probed
        longer = session.extend(token)
        assert longer.tokens == [2, int(token)] and all(type(t) is int for t in longer.tokens)
        assert longer.probs.tobytes() == backend.open([2]).extend(int(token)).probs.tobytes()
