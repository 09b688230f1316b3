"""Model backends: next-token distributions plus hidden states behind one interface.

Three implementations: a table-driven scripted backend (test oracle substrate),
an in-process tiny causal transformer with pseudo-random frozen weights, and a
JSON-over-HTTP client for an external inference server.

Hidden states are always final-layer states, taken after the last
normalization. A candidate token's representation is obtained from a forward
pass that includes the candidate itself.
"""
from __future__ import annotations

import base64
import http.client
import json
import os
import ssl
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence
from urllib.parse import urlsplit

import numpy as np
import requests

from .core import TokenId
from .errors import (
    ArgumentError,
    MissingEntryError,
    ProtocolError,
    ValidationError,
    VocabError,
)

PROB_SUM_TOL = 1e-4


@dataclass(frozen=True)
class BackendInfo:
    """Static facts a backend advertises about itself."""

    vocab_size: int
    hidden_dim: int
    eou_token_id: TokenId

    def __post_init__(self):
        for name in ("vocab_size", "hidden_dim", "eou_token_id"):
            _integer(getattr(self, name), name)
        if self.vocab_size < 2:
            raise ValidationError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.hidden_dim < 1:
            raise ValidationError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if not 0 <= self.eou_token_id < self.vocab_size:
            raise ValidationError(
                f"eou_token_id {self.eou_token_id} outside vocabulary of size {self.vocab_size}"
            )


@dataclass
class StepOutput:
    """One forward result: probability vector over the vocabulary plus hidden state(s).

    ``hidden_all`` is present only when requested and then has one vector per
    input position.
    """

    probs: np.ndarray
    hidden_last: np.ndarray
    hidden_all: Optional[list[np.ndarray]] = None


def _array(x, shape: tuple, name: str, error: type[Exception]) -> np.ndarray:
    """``x`` as a float array of ``shape`` with finite entries; raises ``error``
    naming the field when it is not numeric, ragged, misshapen or non-finite."""
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{name} is not a numeric array of shape {shape}") from exc
    if a.shape != shape:
        raise error(f"{name} has shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a)):
        raise error(f"{name} of shape {shape} contains non-finite values")
    return a


def _integer(x, name: str) -> int:
    """``x`` as an int; raises ``ValidationError`` naming ``name`` when it is
    not an integer, so a float, a string or a bool is refused, not truncated."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _json_info(doc, error: type[Exception]) -> BackendInfo:
    """The ``BackendInfo`` held in the JSON object ``doc``; raises ``error``
    when a field is missing, not an integer or out of range."""
    try:
        return BackendInfo(**{name: doc[name] for name in ("vocab_size", "hidden_dim", "eou_token_id")})
    except KeyError as exc:
        raise error(f"backend info lacks field {exc}") from exc
    except ValidationError as exc:
        raise error(f"bad backend info: {exc}") from exc


def _checked_output(
    out: StepOutput, info: BackendInfo, prefix_len: int, error: type[Exception]
) -> StepOutput:
    """``out`` as checked float arrays: ``probs`` a distribution over the
    vocabulary, ``hidden_last`` one hidden state and ``hidden_all``, when
    present, one row per prefix position. Raises ``error`` otherwise."""
    v, d = info.vocab_size, info.hidden_dim
    probs = _array(out.probs, (v,), "probs", error)
    if np.any(probs < 0):
        raise error("probs contains negative values")
    total = float(probs.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise error(f"probs sums to {total}, expected 1 within {PROB_SUM_TOL}")
    hidden_last = _array(out.hidden_last, (d,), "hidden_last", error)
    if out.hidden_all is None:
        return StepOutput(probs, hidden_last)
    hidden_all = _array(out.hidden_all, (prefix_len, d), "hidden_all", error)
    return StepOutput(probs, hidden_last, list(hidden_all))


class Session:
    """One decoding position: the prefix ``tokens``, its next-token
    distribution ``probs``, and ``hidden_all``, the hidden state of every
    token in ``tokens``.

    ``probe`` and ``extend`` never change a session, so one session can be
    extended by several tokens (beam search branches this way). A session
    has a single owner and is not thread-safe.

    This base class computes from scratch with ``backend.forward`` and
    ``backend.forward_candidates``. An opened session holds the context
    pass; a longer one fetches ``probs`` with ``forward`` on first read,
    and ``hidden_all`` with one ``forward(tokens, want_all_hidden=True)``.
    Backends that cache override ``Backend.open`` and return a subclass.
    """

    def __init__(self, backend: "Backend", tokens: Sequence[TokenId], hidden_all=None, probs=None):
        self._backend = backend
        self.tokens = [int(t) for t in tokens]
        self._hidden_all = hidden_all
        self._probs = None if probs is None else np.asarray(probs, dtype=float)

    @property
    def probs(self) -> np.ndarray:
        if self._probs is None:
            self._probs = self._next_probs()
        return self._probs

    @property
    def hidden_all(self) -> list[np.ndarray]:
        if self._hidden_all is None:
            self._hidden_all = self._backend.forward(self.tokens, want_all_hidden=True).hidden_all
        return self._hidden_all

    def _next_probs(self) -> np.ndarray:
        return np.asarray(self._backend.forward(self.tokens).probs, dtype=float)

    def probe(self, candidates: Sequence[TokenId]) -> list[np.ndarray]:
        """Hidden state of each candidate, as if appended to the prefix."""
        return self._backend.forward_candidates(self.tokens, candidates)

    def extend(self, token: TokenId) -> "Session":
        """The session one token longer."""
        self._backend._check_tokens([token], "token")
        return Session(self._backend, self.tokens + [int(token)])


class Backend(ABC):
    """Abstract model interface.

    ``forward`` is a pure function of (backend identity, prefix,
    want_all_hidden); implementations must be safe for concurrent calls.
    The decoders work through ``open``: its default builds a ``Session`` on
    ``forward`` and ``forward_candidates``, and a backend that can reuse
    work across steps overrides it. Overriding sessions must match the
    from-scratch ``forward`` within 1e-12, not bitwise.
    """

    @property
    @abstractmethod
    def info(self) -> BackendInfo:
        ...

    @abstractmethod
    def forward(self, prefix: Sequence[TokenId], want_all_hidden: bool = False) -> StepOutput:
        ...

    def forward_candidates(
        self, prefix: Sequence[TokenId], candidates: Sequence[TokenId]
    ) -> list[np.ndarray]:
        """Hidden state of each candidate appended to ``prefix``.

        Element i equals forward(prefix + [candidates[i]]).hidden_last;
        implementations may batch but must match that definition.
        """
        ids, cands = self._check_candidates(prefix, candidates)
        return [self.forward(ids + [c]).hidden_last for c in cands]

    def open(self, context_tokens: Sequence[TokenId]) -> Session:
        """Start decoding after ``context_tokens``.

        The default runs one ``forward`` with every hidden state; later
        distributions and probes are from-scratch ``forward`` and
        ``forward_candidates`` calls.
        """
        out = self.forward(list(context_tokens), want_all_hidden=True)
        return Session(self, context_tokens, out.hidden_all, out.probs)

    def _check_prefix(self, prefix: Sequence[TokenId]) -> list[int]:
        if len(prefix) == 0:
            raise ArgumentError("prefix must be non-empty")
        return self._check_tokens(prefix, "token")

    def _check_candidates(
        self, prefix: Sequence[TokenId], candidates: Sequence[TokenId]
    ) -> tuple[list[int], list[int]]:
        """The ids of ``prefix`` and of ``candidates``, checked in this order:
        candidates non-empty, candidate ids, prefix ids. The prefix may be empty."""
        if not candidates:
            raise ArgumentError("candidates must be non-empty")
        cands = self._check_tokens(candidates, "candidate")
        return self._check_tokens(prefix, "token"), cands

    def _check_tokens(self, tokens: Iterable, kind: str) -> list[int]:
        v = self.info.vocab_size
        ids = []
        for t in tokens:
            ti = int(t)
            if ti != t or not 0 <= ti < v:
                raise VocabError(f"{kind} id {t!r} outside vocabulary of size {v}")
            ids.append(ti)
        return ids


class ScriptedBackend(Backend):
    """Exact table lookup from prefix to StepOutput.

    Every table value is validated against ``info`` at construction; an
    unknown prefix at forward time raises MissingEntryError.
    """

    def __init__(self, info: BackendInfo, table: Mapping[Sequence[TokenId], StepOutput]):
        self._info = info
        self._table: dict[tuple[int, ...], StepOutput] = {}
        for prefix, out in table.items():
            key = tuple(_integer(t, "table prefix id") for t in prefix)
            if not key:
                raise ValidationError("table contains an empty prefix")
            if any(not 0 <= t < info.vocab_size for t in key):
                raise ValidationError(f"table prefix {list(key)} contains out-of-vocabulary ids")
            self._table[key] = _checked_output(out, info, len(key), ValidationError)

    @property
    def info(self) -> BackendInfo:
        return self._info

    def forward(self, prefix: Sequence[TokenId], want_all_hidden: bool = False) -> StepOutput:
        key = tuple(self._check_prefix(prefix))
        entry = self._table.get(key)
        if entry is None:
            raise MissingEntryError(f"no table entry for prefix {list(key)}")
        if want_all_hidden and entry.hidden_all is None:
            raise MissingEntryError(f"table entry for prefix {list(key)} lacks hidden_all")
        return StepOutput(
            probs=entry.probs,
            hidden_last=entry.hidden_last,
            hidden_all=entry.hidden_all if want_all_hidden else None,
        )


def load_scripted(path: str | Path) -> ScriptedBackend:
    """Load a scripted backend from its JSON file format.

    Schema: {"info": {"vocab_size", "hidden_dim", "eou_token_id"},
    "table": [{"prefix": [...], "probs": [...], "hidden_last": [...],
    "hidden_all": [[...], ...]?}, ...]}
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scripted backend file is not valid JSON: {exc}") from exc
    try:
        info = _json_info(doc["info"], ValidationError)
        table = {}
        for entry in doc["table"]:
            table[tuple(entry["prefix"])] = StepOutput(
                entry["probs"], entry["hidden_last"], entry.get("hidden_all")
            )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"scripted backend file is missing fields: {exc}") from exc
    return ScriptedBackend(info, table)


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    # The reductions x.mean and x.var make (a sum, then a division by the
    # count, each), with the centred rows computed once; the result is
    # bitwise theirs.
    n = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / n
    centred /= np.sqrt(var + eps)
    centred *= gamma
    centred += beta
    return centred


def _softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _causal_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax of each row of the trailing (t, t) blocks of ``scores`` over the
    columns at or before the row; later columns get exactly 0.0.

    Works in place: ``scores`` is overwritten and returned, so the caller
    must own it and not read it afterwards.

    Bitwise ``_softmax(scores + mask)`` with -inf above the diagonal: the
    masked entries are never exponentiated (exp(-inf) is numpy's slow path)
    and are set to the 0.0 it would give.
    """
    t = scores.shape[-1]
    causal = np.tri(t, dtype=bool)
    z = np.subtract(
        scores, np.max(scores, axis=-1, keepdims=True, where=causal, initial=-np.inf), out=scores
    )
    np.exp(z, where=causal, out=z)
    # The masked entries still hold their finite differences.
    np.copyto(z, 0.0, where=~causal)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _gelu(x: np.ndarray) -> np.ndarray:
    # 0.5 * x * (1.0 + tanh(sqrt(2 / pi) * (x + 0.044715 * (x * x * x)))), one
    # operation at a time into two arrays. Each step is the formula's IEEE
    # multiplication or addition, at most with its operands swapped, so the
    # result is bitwise the formula's.
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= np.sqrt(2.0 / np.pi)
    np.tanh(t, out=t)
    t += 1.0
    h = 0.5 * x
    h *= t
    return h


class TinyTransformer(Backend):
    """Causal-attention transformer LM with weights frozen at construction.

    Weights are drawn in a fixed order from a PCG64 stream seeded with
    ``seed``, so two constructions with the same arguments are identical and
    forward is fully deterministic. Logits come from tied token embeddings;
    hidden states are the final-layer activations after the closing layer
    norm. By convention the end-of-utterance id is ``vocab_size - 1`` unless
    overridden.
    """

    def __init__(
        self,
        seed: int,
        vocab_size: int,
        hidden_dim: int,
        layers: int,
        heads: int,
        eou_token_id: TokenId | None = None,
        max_seq_len: int = 512,
    ):
        if heads < 1:
            raise ArgumentError(f"heads must be >= 1, got {heads}")
        if hidden_dim % heads != 0:
            raise ArgumentError(f"hidden_dim {hidden_dim} not divisible by heads {heads}")
        if layers < 1:
            raise ArgumentError(f"layers must be >= 1, got {layers}")
        self._info = BackendInfo(
            vocab_size=vocab_size,
            hidden_dim=hidden_dim,
            eou_token_id=vocab_size - 1 if eou_token_id is None else eou_token_id,
        )
        self._heads = heads
        self._max_seq_len = max_seq_len

        rng = np.random.Generator(np.random.PCG64(int(seed)))
        d = hidden_dim

        def mat(rows, cols, std):
            return rng.normal(0.0, std, size=(rows, cols))

        self._tok_emb = mat(vocab_size, d, 1.0)
        self._pos_emb = mat(max_seq_len, d, 1.0)
        w_std = 1.0 / np.sqrt(d)
        self._blocks = []
        for _ in range(layers):
            self._blocks.append(
                {
                    "ln1_g": np.ones(d),
                    "ln1_b": np.zeros(d),
                    "wq": mat(d, d, w_std),
                    "wk": mat(d, d, w_std),
                    "wv": mat(d, d, w_std),
                    "wo": mat(d, d, w_std),
                    "ln2_g": np.ones(d),
                    "ln2_b": np.zeros(d),
                    "w1": mat(d, 4 * d, w_std),
                    "b1": np.zeros(4 * d),
                    "w2": mat(4 * d, d, 1.0 / np.sqrt(4 * d)),
                    "b2": np.zeros(d),
                }
            )
        self._lnf_g = np.ones(d)
        self._lnf_b = np.zeros(d)
        # Read-only, so a kernel that writes into a weight raises.
        for w in (self._tok_emb, self._pos_emb, self._lnf_g, self._lnf_b):
            w.setflags(write=False)
        for blk in self._blocks:
            for w in blk.values():
                w.setflags(write=False)

    @property
    def info(self) -> BackendInfo:
        return self._info

    def _qkv(self, x: np.ndarray, blk: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Queries, keys and values of the rows of ``x`` (..., rows, d), each
        (..., heads, rows, head_dim)."""
        *batch, t, d = x.shape
        hd = d // self._heads
        return tuple(
            (x @ blk[w]).reshape(*batch, t, self._heads, hd).swapaxes(-3, -2) for w in ("wq", "wk", "wv")
        )

    def _attend(self, x: np.ndarray, blk: dict, kv: list | None = None) -> np.ndarray:
        """Causal self-attention within each sequence of ``x`` (batch, t, d);
        appends the layer's keys and values to ``kv`` when given."""
        *batch, t, d = x.shape
        hd = d // self._heads
        q, k, v = self._qkv(x, blk)
        if kv is not None:
            kv.append((k, v))
        scores = q @ k.swapaxes(-1, -2)
        scores /= np.sqrt(hd)
        att = _causal_softmax(scores)
        out = (att @ v).swapaxes(-3, -2).reshape(*batch, t, d)
        return out @ blk["wo"]

    def _attend_cached(self, x: np.ndarray, blk: dict, cache: tuple, rows: list) -> np.ndarray:
        """Attention of alternative next positions: each row of ``x`` sees the
        cached keys and values of the prefix and itself, not the other rows.
        Appends the rows' own keys and values to ``rows``."""
        m, d = x.shape
        hd = d // self._heads
        keys, values = cache
        q, k, v = self._qkv(x, blk)
        rows.append((k, v))
        own = np.sum(q * k, axis=-1, keepdims=True)
        scores = np.concatenate([q @ keys.transpose(0, 2, 1), own], axis=-1) / np.sqrt(hd)
        att = _softmax(scores)
        out = att[..., :-1] @ values + att[..., -1:] * v
        return out.transpose(1, 0, 2).reshape(m, d) @ blk["wo"]

    def _stack(self, x: np.ndarray, attend: Callable[[np.ndarray, int], np.ndarray]) -> np.ndarray:
        """The blocks of ``forward`` and the closing norm, with ``attend(x, layer)``
        as each block's attention."""
        for layer, blk in enumerate(self._blocks):
            x = x + attend(_layer_norm(x, blk["ln1_g"], blk["ln1_b"]), layer)
            h = _layer_norm(x, blk["ln2_g"], blk["ln2_b"]) @ blk["w1"]
            h += blk["b1"]
            x = x + _gelu(h) @ blk["w2"]
            x += blk["b2"]
        return _layer_norm(x, self._lnf_g, self._lnf_b)

    def _check_length(self, t: int) -> None:
        if t > self._max_seq_len:
            raise ArgumentError(f"prefix length {t} exceeds max_seq_len {self._max_seq_len}")

    def _ids(self, prefix: Sequence[TokenId]) -> list[int]:
        """The ids of ``prefix``, checked against the vocabulary and max_seq_len."""
        ids = self._check_prefix(prefix)
        self._check_length(len(ids))
        return ids

    def _encode(self, ids: np.ndarray, kv: list | None = None) -> np.ndarray:
        """The final hidden state of each position of each row of ``ids``, a
        (batch, t) array of checked ids; appends every layer's keys and values,
        each (batch, heads, t, head_dim), to ``kv`` when given.

        Every sequence is computed by the same numpy calls on same-shaped
        slices as a batch of one, so its states are bitwise the same.
        """
        return self._stack(
            self._tok_emb[ids] + self._pos_emb[: ids.shape[1]],
            lambda x, layer: self._attend(x, self._blocks[layer], kv),
        )

    def _probs(self, hidden: np.ndarray) -> np.ndarray:
        # Tied-embedding logits, tempered so random weights yield spread-out
        # distributions instead of near-one-hot ones.
        return _softmax(hidden @ self._tok_emb.T * 0.5)

    def open(self, context_tokens: Sequence[TokenId]) -> Session:
        """Encode the context once and keep every layer's keys and values."""
        ids = self._ids(context_tokens)
        kv: list = []
        h = self._encode(np.array([ids]), kv)[0]
        return _TinySession(self, ids, list(h), [(k[0], v[0]) for k, v in kv])

    def forward(self, prefix: Sequence[TokenId], want_all_hidden: bool = False) -> StepOutput:
        h = self._encode(np.array([self._ids(prefix)]))[0]
        return StepOutput(
            probs=self._probs(h[-1]),
            hidden_last=h[-1],
            hidden_all=list(h) if want_all_hidden else None,
        )

    def forward_candidates(
        self, prefix: Sequence[TokenId], candidates: Sequence[TokenId]
    ) -> list[np.ndarray]:
        """Encode the sequences ``prefix + [c]`` as one batch and return each
        one's last hidden state.

        Bitwise equal to ``forward(prefix + [c]).hidden_last`` for each c, and
        it raises what ``Backend.forward_candidates`` raises, in the same
        order. The prefix is encoded once per candidate: the price of
        equality, since a session probe over a cached prefix agrees only to
        about 1e-12. The batch holds m times one forward's attention scores.
        """
        ids, cands = self._check_candidates(prefix, candidates)
        t = len(ids) + 1
        self._check_length(t)
        seqs = np.empty((len(cands), t), dtype=np.intp)
        seqs[:, :-1] = ids
        seqs[:, -1] = cands
        return list(self._encode(seqs)[:, -1].copy())


class _TinySession(Session):
    """Session over a TinyTransformer's per-layer key/value cache.

    A probe runs its candidates as one batch of rows at the next position,
    each attending to the cache and to itself; extending by a probed token
    reuses that row's keys, values and hidden state, so no position is
    computed twice.
    """

    def __init__(self, model: TinyTransformer, tokens, hidden_all: list, kv: list):
        super().__init__(model, tokens, hidden_all)
        self._kv = kv  # per layer: (keys, values), each (heads, prefix length, head_dim)
        # probed token -> (its hidden state, the probe's per-layer (keys,
        # values) rows, its row index in them)
        self._probed: dict[int, tuple[np.ndarray, list, int]] = {}

    def _next_probs(self) -> np.ndarray:
        return self._backend._probs(self.hidden_all[-1])

    def probe(self, candidates: Sequence[TokenId]) -> list[np.ndarray]:
        model = self._backend
        # The session's own tokens were checked when it was opened.
        _, ids = model._check_candidates([], candidates)
        t = len(self.tokens)
        model._check_length(t + 1)
        rows: list = []
        h = model._stack(
            model._tok_emb[ids] + model._pos_emb[t],
            lambda x, layer: model._attend_cached(x, model._blocks[layer], self._kv[layer], rows),
        )
        for i, c in enumerate(ids):
            self._probed[c] = (h[i], rows, i)
        return [h[i] for i in range(len(ids))]

    def extend(self, token: TokenId) -> Session:
        if token not in self._probed:
            self.probe([token])
        hidden, rows, i = self._probed[token]
        kv = [
            (
                np.concatenate([keys, k[:, i : i + 1]], axis=1),
                np.concatenate([values, v[:, i : i + 1]], axis=1),
            )
            for (keys, values), (k, v) in zip(self._kv, rows)
        ]
        return _TinySession(self._backend, self.tokens + [int(token)], self.hidden_all + [hidden], kv)


def _field(doc: dict, key: str):
    if key not in doc:
        raise ProtocolError(f"response missing field {key!r}")
    return doc[key]


def _basic_auth(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(f"{user}:{password}".encode("latin1")).decode("ascii")


def _ssl_context(verify, cert) -> ssl.SSLContext:
    """The TLS settings requests would apply: ``verify`` is False, True (requests'
    CA bundle) or the path of a CA file or directory; ``cert`` is None, a
    combined certificate and key file, or a (certificate, key) pair."""
    if verify is False:
        context = ssl.create_default_context()
        context.check_hostname = False
        context.verify_mode = ssl.CERT_NONE
    else:
        ca = requests.utils.DEFAULT_CA_BUNDLE_PATH if verify is True else verify
        context = ssl.create_default_context(**{"capath" if os.path.isdir(ca) else "cafile": ca})
    if cert:
        certfile, keyfile = (cert, None) if isinstance(cert, str) else cert
        context.load_cert_chain(certfile, keyfile)
    return context


def _connection(url: str, timeout: float) -> tuple[http.client.HTTPConnection, str, dict]:
    """An unopened keep-alive connection for the endpoint ``url``, the prefix of
    its request targets, and the headers every request carries.

    The proxy (``HTTP_PROXY``, ``HTTPS_PROXY``, ``ALL_PROXY``, ``NO_PROXY``),
    the CA bundle (``REQUESTS_CA_BUNDLE``, ``CURL_CA_BUNDLE``) and the
    credentials (``.netrc`` or ``NETRC``, else the URL's own) are read from the
    environment by requests' rules. A plain-HTTP request goes to the proxy
    with the absolute URL as its target; an HTTPS one is tunnelled through it.
    """
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ProtocolError(f"endpoint {url!r} is not an http or https URL")
    with requests.Session() as session:
        env = session.merge_environment_settings(url, {}, None, None, None)
    headers = {
        "Content-Type": "application/json",
        "Accept": "application/json",
        "User-Agent": requests.utils.default_user_agent(),
    }
    auth = requests.utils.get_netrc_auth(url) or requests.utils.get_auth_from_url(url)
    if any(auth):
        headers["Authorization"] = _basic_auth(*auth)
    https = parts.scheme == "https"
    context = _ssl_context(env["verify"], env["cert"]) if https else None

    def connect(host: str, port: int | None) -> http.client.HTTPConnection:
        if https:
            return http.client.HTTPSConnection(host, port, timeout=timeout, context=context)
        return http.client.HTTPConnection(host, port, timeout=timeout)

    proxy = requests.utils.select_proxy(url, env["proxies"])
    if not proxy:
        return connect(parts.hostname, parts.port), parts.path, headers
    proxy = requests.utils.prepend_scheme_if_needed(proxy, "http")
    proxy_parts = urlsplit(proxy)
    if proxy_parts.scheme != "http" or not proxy_parts.hostname:
        raise ProtocolError(f"unsupported proxy {proxy!r}: only http:// proxies are supported")
    user, password = requests.utils.get_auth_from_url(proxy)
    proxy_auth = {"Proxy-Authorization": _basic_auth(user, password)} if user else {}
    conn = connect(proxy_parts.hostname, proxy_parts.port)
    if https:
        conn.set_tunnel(parts.hostname, parts.port, headers=proxy_auth)
        return conn, parts.path, headers
    return conn, f"http://{parts.netloc.rpartition('@')[2]}{parts.path}", {**headers, **proxy_auth}


class RemoteBackend(Backend):
    """HTTP client for an inference server speaking the JSON wire protocol.

    The constructor performs the /info request and fails fast when the
    endpoint is unreachable or replies out of schema. Servers may return
    "logits" instead of "probs"; logits are normalized client-side with a
    softmax.

    Each instance sends its requests, one at a time, over one keep-alive
    ``http.client`` connection, so it is not thread-safe: use one
    RemoteBackend per thread. The proxy, CA bundle, client certificate and
    .netrc settings for the endpoint are read from the environment once,
    here, by requests' rules (see ``_connection``). Redirects are not
    followed (a 3xx status raises ``ProtocolError``) and no compression is
    advertised.
    """

    def __init__(self, endpoint_url: str, timeout: float = 10.0):
        self._url = endpoint_url.rstrip("/")
        self._timeout = timeout
        # The connection keeps the name ``_session``: the benchmark closes
        # it to let its wire server stop.
        try:
            self._session, self._target, self._headers = _connection(self._url, timeout)
        except (OSError, ValueError) as exc:
            raise ProtocolError(f"cannot connect to {self._url}: {exc}") from exc
        self._info = _json_info(self._request("GET", "/info"), ProtocolError)

    @property
    def info(self) -> BackendInfo:
        return self._info

    def _exchange(self, method: str, path: str, data: bytes | None) -> tuple[int, bytes]:
        """Send one request and read the whole response: its status and body.

        A reused connection that the server has since closed fails before any
        response line arrives; the request is then sent once more, on a fresh
        connection. Requests are pure functions of the prefix, so resending is
        safe. A failure on a fresh connection is not retried.
        """
        conn = self._session
        while True:
            reused = conn.sock is not None
            try:
                conn.request(method, self._target + path, data, self._headers)
                response = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected is the first
                if not reused:
                    raise
                conn.close()
                continue
            return response.status, response.read()

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        """The JSON object a request returns. A failed request closes the
        connection, so a late response cannot answer the next request."""
        url = self._url + path
        data = None if body is None else json.dumps(body, allow_nan=False).encode()
        try:
            status, payload = self._exchange(method, path, data)
        except TimeoutError as exc:
            self._session.close()
            raise TimeoutError(f"{method} {url} timed out after {self._timeout}s") from exc
        except (OSError, http.client.HTTPException) as exc:
            self._session.close()
            raise ProtocolError(f"{method} {url} failed: {exc}") from exc
        if status != 200:
            raise ProtocolError(f"{method} {url} returned HTTP {status}")
        try:
            doc = json.loads(payload)
        except ValueError as exc:
            raise ProtocolError(f"{method} {url} returned invalid JSON") from exc
        if not isinstance(doc, dict):
            raise ProtocolError(f"{method} {url} returned a non-object body")
        return doc

    def forward(self, prefix: Sequence[TokenId], want_all_hidden: bool = False) -> StepOutput:
        ids = self._check_prefix(prefix)
        doc = self._request(
            "POST",
            "/forward",
            {"tokens": ids, "return_hidden": "all" if want_all_hidden else "last"},
        )
        if "probs" in doc:
            probs = doc["probs"]
        elif "logits" in doc:
            probs = _softmax(_array(doc["logits"], (self._info.vocab_size,), "logits", ProtocolError))
        else:
            raise ProtocolError("response has neither 'probs' nor 'logits'")
        hidden_all = _field(doc, "hidden_all") if want_all_hidden else None
        out = StepOutput(probs, _field(doc, "hidden_last"), hidden_all)
        return _checked_output(out, self._info, len(ids), ProtocolError)

    def forward_candidates(
        self, prefix: Sequence[TokenId], candidates: Sequence[TokenId]
    ) -> list[np.ndarray]:
        ids, cands = self._check_candidates(prefix, candidates)
        doc = self._request("POST", "/forward_batch", {"prefix": ids, "candidates": cands})
        shape = (len(cands), self._info.hidden_dim)
        return list(_array(_field(doc, "hidden"), shape, "hidden", ProtocolError))

