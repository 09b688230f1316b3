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
import netrc
import os
import ssl
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence
from urllib.parse import unquote, urlsplit
from urllib.request import getproxies_environment, proxy_bypass_environment

import numpy as np

from .core import TokenId, _is_integer, _is_real
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

    ``hidden_all`` is present only when requested and then is one float64
    (len(prefix), d) matrix: row i is the hidden state of position i. Every
    backend here hands out read-only arrays.
    """

    probs: np.ndarray
    hidden_last: np.ndarray
    hidden_all: Optional[np.ndarray] = None


def _read_only(x, dtype=float) -> np.ndarray:
    """A read-only view of ``x`` as ``dtype``; an array of it is not copied."""
    a = np.asarray(x, dtype=dtype).view()
    a.setflags(write=False)
    return a


def _array(x, shape: tuple, name: str, error: type[Exception]) -> np.ndarray:
    """A read-only float copy of ``x`` of ``shape`` with finite entries; raises
    ``error`` naming the field when it is not numeric, ragged, misshapen or
    non-finite."""
    try:
        a = np.array(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{name} is not a numeric array of shape {shape}") from exc
    if a.shape != shape:
        raise error(f"{name} has shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a)):
        raise error(f"{name} of shape {shape} contains non-finite values")
    a.setflags(write=False)
    return a


def _integer(x, name: str) -> int:
    """``x`` as an int; raises ``ValidationError`` naming ``name`` when it is
    not an integer, so a float, a string or a bool is refused, not truncated."""
    if not _is_integer(x):
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
    return StepOutput(probs, hidden_last, _array(out.hidden_all, (prefix_len, d), "hidden_all", error))


class Session:
    """One decoding position: the prefix ``tokens`` (checked ints, kept as
    handed over), its next-token distribution ``probs``, and ``hidden_all``,
    the hidden state of every token in ``tokens`` as one float64
    (len(tokens), d) matrix.

    ``probe`` and ``extend`` never change a session, so one session can be
    extended by several tokens (beam search branches this way). To keep
    that so, ``probs``, ``hidden_all`` and the matrices ``probe`` returns
    are read-only. A session has a single owner and is not thread-safe.

    ``probe`` is the one place where candidate rows are computed. This base
    class computes from scratch with ``backend.forward``, each value on
    first read: ``hidden_all`` with one ``forward(tokens,
    want_all_hidden=True)``, whose ``probs`` it keeps, ``probs`` otherwise
    with one ``forward(tokens)``, and a probe with one ``forward(tokens +
    [c])`` per candidate, so its ``probe`` is the bitwise from-scratch
    reference. A backend that caches or batches overrides ``Backend.open``
    and returns a subclass, which may hand the constructor a ``hidden_all``
    it already has and override ``_next_probs``, the first read of
    ``probs``.
    """

    def __init__(self, backend: "Backend", tokens: list[int], hidden_all=None):
        self._backend = backend
        self.tokens = tokens
        self._hidden_all = None if hidden_all is None else _read_only(hidden_all)
        self._probs = None

    @property
    def probs(self) -> np.ndarray:
        if self._probs is None:
            self._probs = _read_only(self._next_probs())
        return self._probs

    @property
    def hidden_all(self) -> np.ndarray:
        if self._hidden_all is None:
            out = self._backend.forward(self.tokens, want_all_hidden=True)
            self._hidden_all = _read_only(out.hidden_all)
            if self._probs is None:
                self._probs = _read_only(out.probs)
        return self._hidden_all

    def _next_probs(self) -> np.ndarray:
        return self._backend.forward(self.tokens).probs

    def probe(self, candidates: Sequence[TokenId]) -> np.ndarray:
        """Hidden state of each candidate, as if appended to the prefix: one
        read-only (len(candidates), d) matrix."""
        cands = self._backend._check_candidates(candidates)
        return _read_only([self._backend.forward(self.tokens + [c]).hidden_last for c in cands])

    def extend(self, token: TokenId) -> "Session":
        """The session one token longer, of this session's class."""
        (token,) = self._backend._check_tokens([token], "token")
        return type(self)(self._backend, self.tokens + [token])


class Backend(ABC):
    """Abstract model interface: implement ``info`` and ``forward``.

    ``forward`` is a pure function of (backend identity, prefix,
    want_all_hidden); implementations must be safe for concurrent calls
    from several threads.
    The decoders work through ``open`` and the ``Session`` it returns; the
    default is the base session, which computes from scratch. A backend
    that caches or batches overrides ``open`` and returns a ``Session``
    subclass, whose outputs must match the from-scratch ones within 1e-12,
    not bitwise.
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
    ) -> np.ndarray:
        """Hidden state of each candidate appended to ``prefix``, as one
        read-only float64 (len(candidates), d) matrix whose row i matches
        forward(prefix + [candidates[i]]).hidden_last.

        A convenience over ``open(prefix).probe(candidates)``, with the
        candidates checked first. An empty prefix is probed on the base
        ``Session``: one ``forward`` per candidate alone.
        """
        cands = self._check_candidates(candidates)
        return (self.open(prefix) if len(prefix) else Session(self, [])).probe(cands)

    def open(self, context_tokens: Sequence[TokenId]) -> Session:
        """Start decoding after ``context_tokens``: the base session, which
        runs nothing until it is read."""
        return Session(self, self._check_prefix(context_tokens))

    def _check_prefix(self, prefix: Sequence[TokenId]) -> list[int]:
        if len(prefix) == 0:
            raise ArgumentError("prefix must be non-empty")
        return self._check_tokens(prefix, "token")

    def _check_candidates(self, candidates: Sequence[TokenId]) -> list[int]:
        """The ids of ``candidates``, which must be non-empty."""
        if len(candidates) == 0:
            raise ArgumentError("candidates must be non-empty")
        return self._check_tokens(candidates, "candidate")

    def _check_tokens(self, tokens: Iterable, kind: str) -> list[int]:
        v = self.info.vocab_size
        ids = []
        for t in tokens:
            # A float, a bool or numpy's bool_ is refused, not taken as the
            # int it compares equal to; a plain int skips the call.
            ti = t if type(t) is int else int(t) if _is_integer(t) else None
            if ti is None or not 0 <= ti < v:
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


def _layer_norm(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    # The reductions x.mean and x.var make (a sum, then a division by the
    # count, each), with the centred rows computed once; the result is
    # bitwise (x - x.mean) / sqrt(x.var + eps). The model's layer norms have
    # no gain or shift: they would be the identity ones and zeros.
    n = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / n
    var += eps
    centred /= np.sqrt(var, out=var)
    return centred


def _softmax(x: np.ndarray) -> np.ndarray:
    # np.maximum.reduce and np.add.reduce are what x.max and x.sum run,
    # without their Python wrappers; the shifted copy is worked on in place.
    z = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def _masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax of each row of ``scores`` over the columns where the boolean
    ``mask`` (its trailing two axes, broadcast over the leading ones) is
    True, at least one per row; the other columns get exactly 0.0.

    Works in place: ``scores`` is overwritten and returned, so the caller
    must own it and not read it afterwards.

    Bitwise ``_softmax(scores + m)`` with m -inf where ``mask`` is False.
    exp(-inf) is numpy's slow path, and a loop under ``where=`` is slower per
    entry than a plain one: few masked entries (a probe, a short context)
    are set to -inf, many (a long causal block) are never exponentiated and
    are set to the 0.0 exp(-inf) would give.
    """
    hidden = ~mask
    # Measured on a 2-core x86-64: -inf is faster up to ~760 masked scores
    # (any probe of 6), the loops from ~1560. Under 1024 scores, no count.
    if scores.size < 1024 or np.count_nonzero(hidden) * (scores.size // hidden.size) < 1024:
        np.copyto(scores, -np.inf, where=hidden)
        return _softmax(scores)
    z = np.subtract(
        scores, np.maximum.reduce(scores, axis=-1, keepdims=True, where=mask, initial=-np.inf), out=scores
    )
    np.exp(z, where=mask, out=z)
    # The masked entries still hold their finite differences.
    np.copyto(z, 0.0, where=hidden)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
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
    norm. The layer norms have no gain or shift and the MLP has no biases:
    they would be ones and zeros, which change no value. The end-of-utterance
    id is ``vocab_size - 1``.

    Every row the model computes goes through one pass, ``_run``: one
    attention kernel per layer over [cache | a causal block, or each row's
    own column]. The context pass of ``open`` and ``forward`` is a causal
    chunk over an empty cache; it keeps every layer's keys and values and
    hands out read-only arrays. A session probes its candidates as rows at
    the next position on that cache, so they match ``forward(prefix +
    [c]).hidden_last`` within 1e-12, not bitwise; ``Session(model,
    prefix).probe(...)`` is the bitwise probe.

    The model keeps its last sequence pass: its hidden states, keys and
    values (about 4.5 MB at 128 dimensions, 4 layers and 512 positions) and
    its ``probs``. ``open``, ``forward`` or ``forward_candidates`` with the
    same ids reuse it bitwise, so a ``forward_candidates`` after a
    ``forward`` of its prefix runs only the probe. Each call still gets its
    own session: a probe on one never changes what another's ``extend``
    reads.
    """

    def __init__(
        self,
        seed: int,
        vocab_size: int,
        hidden_dim: int,
        layers: int,
        heads: int,
        max_seq_len: int = 512,
    ):
        for name, value, least in (
            ("seed", seed, 0),
            ("vocab_size", vocab_size, 2),
            ("hidden_dim", hidden_dim, 1),
            ("layers", layers, 1),
            ("heads", heads, 1),
            ("max_seq_len", max_seq_len, 1),
        ):
            if not _is_integer(value):
                raise ArgumentError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ArgumentError(f"{name} must be >= {least}, got {value}")
        if hidden_dim % heads != 0:
            raise ArgumentError(f"hidden_dim {hidden_dim} not divisible by heads {heads}")
        self._info = BackendInfo(
            vocab_size=vocab_size,
            hidden_dim=hidden_dim,
            eou_token_id=vocab_size - 1,
        )
        self._heads = heads
        self._sqrt_head_dim = float(np.sqrt(hidden_dim // heads))
        self._max_seq_len = max_seq_len
        # The last sequence pass: its id tuple, hidden states, keys and values,
        # and probs. Arrays only, so the model and its sessions form no cycle.
        self._last: Optional[tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]] = None

        rng = np.random.Generator(np.random.PCG64(int(seed)))
        d = hidden_dim

        def mat(rows, cols, std):
            return rng.normal(0.0, std, size=(rows, cols))

        self._tok_emb = mat(vocab_size, d, 1.0)
        self._pos_emb = mat(max_seq_len, d, 1.0)
        w_std = 1.0 / np.sqrt(d)
        self._blocks = []
        for _ in range(layers):
            # The query, key and value projections side by side, drawn in
            # that order.
            wqkv = np.concatenate([mat(d, d, w_std) for _ in range(3)], axis=1)
            self._blocks.append(
                {
                    "wqkv": wqkv,
                    "wo": mat(d, d, w_std),
                    "w1": mat(d, 4 * d, w_std),
                    "w2": mat(4 * d, d, 1.0 / np.sqrt(4 * d)),
                }
            )
        # Read-only, so a kernel that writes into a weight raises.
        for w in (self._tok_emb, self._pos_emb, *(w for blk in self._blocks for w in blk.values())):
            w.setflags(write=False)

    @property
    def info(self) -> BackendInfo:
        return self._info

    def _attend(self, x: np.ndarray, layer: int, kv: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Self-attention of the rows of ``x`` (r, d) over one key/value
        array ``kv`` (2, heads, c + r, head_dim): its first c positions hold
        the cache, c possibly 0, and the kernel writes the rows' own keys and
        values into the last r. Row i sees position j where the boolean
        (r, c + r) ``mask`` is True."""
        r, d = x.shape
        blk = self._blocks[layer]
        qkv = (x @ blk["wqkv"]).reshape(r, 3, self._heads, d // self._heads).transpose(1, 2, 0, 3)
        kv[:, :, -r:] = qkv[1:]
        k, v = kv
        scores = qkv[0] @ k.swapaxes(-1, -2)
        scores /= self._sqrt_head_dim
        att = _masked_softmax(scores, mask)
        return (att @ v).swapaxes(0, 1).reshape(r, d) @ blk["wo"]

    def _run(self, cache: np.ndarray, ids: list[int], causal: bool) -> tuple[np.ndarray, np.ndarray]:
        """Every row the model computes: the checked ``ids`` as r rows after the
        c positions of ``cache`` (layers, 2, heads, c, head_dim), c possibly 0,
        over [cache | a causal block] at positions c to c + r - 1, or, if not
        ``causal`` (a probe), over [cache | each row's own column] at position c.
        Returns the rows' (r, d) hidden states and keys and values, cache first."""
        layers, _, heads, c, head_dim = cache.shape
        r = len(ids)
        t = c + r if causal else c + 1
        if t > self._max_seq_len:
            raise ArgumentError(f"prefix length {t} exceeds max_seq_len {self._max_seq_len}")
        kv = np.empty((layers, 2, heads, c + r, head_dim))
        kv[:, :, :, :c] = cache
        if causal:
            mask = np.tri(r, c + r, c, dtype=bool)
            x = self._tok_emb[ids] + self._pos_emb[c : c + r]
        else:
            mask = np.eye(r, c + r, c, dtype=bool)
            mask[:, :c] = True
            x = self._tok_emb[ids] + self._pos_emb[c]
        for layer, blk in enumerate(self._blocks):
            x = x + self._attend(_layer_norm(x), layer, kv[layer], mask)
            x = x + _gelu(_layer_norm(x) @ blk["w1"]) @ blk["w2"]
        return _layer_norm(x), kv

    def _session(self, ids: list[int]) -> "_TinySession":
        """The one sequence pass: a causal chunk of the checked ``ids`` over an
        empty cache, kept with its keys and values. The ids of the last pass
        get a new session over its arrays, with no pass."""
        key = tuple(ids)
        last = self._last  # read once: another thread may replace it
        if last is None or last[0] != key:
            empty = np.empty((len(self._blocks), 2, self._heads, 0, self._info.hidden_dim // self._heads))
            h, kv = self._run(empty, ids, causal=True)
            h.setflags(write=False)
            kv.setflags(write=False)
            last = self._last = key, h, kv, _read_only(self._probs(h[-1]))
        return _TinySession(self, ids, *last[1:])

    def _probs(self, hidden: np.ndarray) -> np.ndarray:
        # Tied-embedding logits, tempered so random weights yield spread-out
        # distributions instead of near-one-hot ones.
        return _softmax(hidden @ self._tok_emb.T * 0.5)

    def open(self, context_tokens: Sequence[TokenId]) -> Session:
        """Encode the context once and keep every layer's keys and values."""
        return self._session(self._check_prefix(context_tokens))

    def forward(self, prefix: Sequence[TokenId], want_all_hidden: bool = False) -> StepOutput:
        session = self._session(self._check_prefix(prefix))
        h = session.hidden_all
        return StepOutput(session.probs, h[-1], h if want_all_hidden else None)


class _TinySession(Session):
    """Session over a TinyTransformer's key/value cache.

    A probe is one ``_run`` of its candidates over the cache at the next
    position, each row seeing the cache and itself, not the other rows. It
    keeps only the rows' keys and values; extending by a probed token reuses
    that row's keys, values and hidden state, so no position is computed twice.
    """

    def __init__(
        self, model: TinyTransformer, tokens: list[int], hidden_all: np.ndarray, kv: np.ndarray, probs=None
    ):
        super().__init__(model, tokens, hidden_all)
        self._kv = kv  # (layers, 2, heads, prefix length, head_dim): keys, then values
        self._probs = probs  # read-only, or None until first read
        # probed token -> (the probe's (candidates, d) hidden states, its
        # (layers, 2, heads, candidates, head_dim) keys and values, the token's row)
        self._probed: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}

    def _next_probs(self) -> np.ndarray:
        return self._backend._probs(self.hidden_all[-1])

    def probe(self, candidates: Sequence[TokenId]) -> np.ndarray:
        # The session's own tokens were checked when it was opened.
        ids = self._backend._check_candidates(candidates)
        h, kv = self._backend._run(self._kv, ids, causal=False)
        h = _read_only(h)
        rows = kv[:, :, :, len(self.tokens) :].copy()
        for i, c in enumerate(ids):
            self._probed[c] = h, rows, i
        return h

    def extend(self, token: TokenId) -> Session:
        (token,) = self._backend._check_tokens([token], "token")
        if token not in self._probed:
            self.probe([token])
        h, rows, i = self._probed[token]
        kv = np.concatenate([self._kv, rows[:, :, :, i : i + 1]], axis=3)
        hidden_all = np.concatenate([self.hidden_all, h[i : i + 1]])
        return _TinySession(self._backend, self.tokens + [token], hidden_all, kv)


def _field(doc: dict, key: str):
    if key not in doc:
        raise ProtocolError(f"response missing field {key!r}")
    return doc[key]


def _basic_auth(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(f"{user}:{password}".encode("latin1")).decode("ascii")


def _url_auth(parts) -> tuple[str, str]:
    """A split URL's percent-decoded user name and password, if it has a password."""
    return (unquote(parts.username), unquote(parts.password)) if parts.password is not None else ("", "")


def _netrc_auth(host: str) -> tuple[str, str] | None:
    """The .netrc login (else account) and password for ``host``, from ``NETRC``, else
    ``~/.netrc``, else ``~/_netrc``; None if there is no entry or no readable file."""
    names = [os.environ["NETRC"]] if "NETRC" in os.environ else ["~/.netrc", "~/_netrc"]
    try:
        path = next(p for p in map(os.path.expanduser, names) if os.path.exists(p))
        entry = netrc.netrc(path).authenticators(host)
    except (StopIteration, netrc.NetrcParseError, OSError):
        return None
    return (entry[0] or entry[1] or "", entry[2] or "") if entry and any(entry) else None


def _connection(url: str, timeout: float) -> tuple[http.client.HTTPConnection, str, dict]:
    """An unopened keep-alive connection for the endpoint ``url``, the prefix of
    its request targets, and the headers every request carries. The proxy is the
    scheme's (``HTTP_PROXY``, ``HTTPS_PROXY``), else ``ALL_PROXY``, with ``http://``
    added when it names no scheme; ``NO_PROXY`` hosts go direct. A plain-HTTP
    request goes to the proxy with the absolute URL as its target; an HTTPS one
    is tunnelled through it. Credentials come from .netrc, else the URL."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ProtocolError(f"endpoint {url!r} is not an http or https URL")
    headers = {"Content-Type": "application/json", "Accept": "application/json"}
    auth = _netrc_auth(parts.hostname) or _url_auth(parts)
    if any(auth):
        headers["Authorization"] = _basic_auth(*auth)
    https = parts.scheme == "https"
    ca = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    ca_args = {("capath" if os.path.isdir(ca) else "cafile"): ca} if ca else {}
    context = ssl.create_default_context(**ca_args) if https else None

    def connect(host: str, port: int | None) -> http.client.HTTPConnection:
        if https:
            return http.client.HTTPSConnection(host, port, timeout=timeout, context=context)
        return http.client.HTTPConnection(host, port, timeout=timeout)

    proxies = getproxies_environment()
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    bypass_host = f"{parts.hostname}:{parts.port}" if parts.port else parts.hostname  # IPv6 unbracketed
    if not proxy or proxy_bypass_environment(bypass_host, proxies):
        return connect(parts.hostname, parts.port), parts.path, headers
    if "://" not in proxy:
        proxy = "http://" + proxy
    proxy_parts = urlsplit(proxy)
    if proxy_parts.scheme != "http" or not proxy_parts.hostname:
        raise ProtocolError(f"unsupported proxy {proxy!r}: only http:// proxies are supported")
    user, password = _url_auth(proxy_parts)
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

    Each instance sends its requests over one keep-alive ``http.client``
    connection. A lock holds each request and its response together, so
    threads may share an instance: their requests take turns on the
    connection. The proxy, CA bundle and .netrc settings for the endpoint are
    read from the environment once, here, by the standard library's rules (see
    ``_connection``). HTTPS trusts the CA file or directory that
    ``REQUESTS_CA_BUNDLE``, else ``CURL_CA_BUNDLE``, names, else the system
    store (which honours ``SSL_CERT_FILE`` and ``SSL_CERT_DIR``). ``NO_PROXY``
    lists exact hosts, suffixes that start at a dot, or ``*``; CIDR ranges are
    not honoured. No ``User-Agent`` header is sent. Redirects are not followed
    (a 3xx status raises ``ProtocolError``) and no compression is advertised.
    """

    def __init__(self, endpoint_url: str, timeout: float = 10.0):
        # A socket takes at most threading.TIMEOUT_MAX seconds (about 292 years).
        if not _is_real(timeout) or not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ArgumentError(
                f"timeout must be a positive number of seconds up to {threading.TIMEOUT_MAX}, got {timeout!r}"
            )
        self._url = endpoint_url.rstrip("/")
        self._timeout = timeout
        self._lock = threading.Lock()  # one exchange on the connection at a time
        # The connection keeps the name ``_session``: the benchmark closes
        # it to let its wire server stop.
        try:
            self._session, self._target, self._headers = _connection(self._url, timeout)
        except (OSError, ValueError) as exc:
            raise ProtocolError(f"cannot connect to {self._url}: {exc}") from exc
        try:
            self._info = _json_info(self._request("GET", "/info"), ProtocolError)
        except ProtocolError:  # a refused handshake: no instance owns the connection
            self._session.close()
            raise

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
        with self._lock:
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

    def open(self, context_tokens: Sequence[TokenId]) -> Session:
        """The base session, with each probe one ``/forward_batch`` request."""
        return _RemoteSession(self, self._check_prefix(context_tokens))


class _RemoteSession(Session):
    """Session on a ``RemoteBackend`` whose probe is one ``/forward_batch``
    request; the rest is the base session's ``/forward`` requests."""

    def probe(self, candidates: Sequence[TokenId]) -> np.ndarray:
        remote = self._backend
        cands = remote._check_candidates(candidates)
        doc = remote._request("POST", "/forward_batch", {"prefix": self.tokens, "candidates": cands})
        shape = (len(cands), remote.info.hidden_dim)
        return _array(_field(doc, "hidden"), shape, "hidden", ProtocolError)
