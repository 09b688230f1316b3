"""Model backends: next-token distributions plus hidden states behind one interface.

Three implementations: a table-driven scripted backend (test oracle substrate),
an in-process tiny causal transformer with pseudo-random frozen weights, and a
JSON-over-HTTP client for an external inference server.

Hidden states are always final-layer states, taken after the last
normalization. A candidate token's representation is obtained from a forward
pass that includes the candidate itself.
"""
from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

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


def _validate_step_output(out: StepOutput, info: BackendInfo, prefix_len: int | None) -> None:
    probs = np.asarray(out.probs, dtype=float)
    if probs.shape != (info.vocab_size,):
        raise ValidationError(f"probs must have length {info.vocab_size}, got shape {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise ValidationError("probs contains non-finite values")
    if np.any(probs < 0):
        raise ValidationError("probs contains negative values")
    total = float(probs.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"probs sums to {total}, expected 1 within {PROB_SUM_TOL}")
    hl = np.asarray(out.hidden_last, dtype=float)
    if hl.shape != (info.hidden_dim,):
        raise ValidationError(f"hidden_last must have length {info.hidden_dim}, got shape {hl.shape}")
    if not np.all(np.isfinite(hl)):
        raise ValidationError("hidden_last contains non-finite values")
    if out.hidden_all is not None:
        if prefix_len is not None and len(out.hidden_all) != prefix_len:
            raise ValidationError(
                f"hidden_all has {len(out.hidden_all)} vectors for a prefix of length {prefix_len}"
            )
        for i, h in enumerate(out.hidden_all):
            hv = np.asarray(h, dtype=float)
            if hv.shape != (info.hidden_dim,):
                raise ValidationError(f"hidden_all[{i}] must have length {info.hidden_dim}")
            if not np.all(np.isfinite(hv)):
                raise ValidationError(f"hidden_all[{i}] contains non-finite values")


class Backend(ABC):
    """Abstract model interface.

    ``forward`` is a pure function of (backend identity, prefix,
    want_all_hidden); implementations must be safe for concurrent calls.
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
        if not candidates:
            raise ArgumentError("candidates must be non-empty")
        self._check_tokens(candidates, "candidate")
        base = list(prefix)
        return [self.forward(base + [int(c)], False).hidden_last for c in candidates]

    def _check_prefix(self, prefix: Sequence[TokenId]) -> list[int]:
        if len(prefix) == 0:
            raise ArgumentError("prefix must be non-empty")
        self._check_tokens(prefix, "token")
        return [int(t) for t in prefix]

    def _check_tokens(self, tokens: Iterable, kind: str) -> None:
        v = self.info.vocab_size
        for t in tokens:
            ti = int(t)
            if ti != t or not 0 <= ti < v:
                raise VocabError(f"{kind} id {t!r} outside vocabulary of size {v}")


class ScriptedBackend(Backend):
    """Exact table lookup from prefix to StepOutput.

    Every table value is validated against ``info`` at construction; an
    unknown prefix at forward time raises MissingEntryError.
    """

    def __init__(self, info: BackendInfo, table: Mapping[Sequence[TokenId], StepOutput]):
        self._info = info
        self._table: dict[tuple[int, ...], StepOutput] = {}
        for prefix, out in table.items():
            key = tuple(int(t) for t in prefix)
            if not key:
                raise ValidationError("table contains an empty prefix")
            if any(not 0 <= t < info.vocab_size for t in key):
                raise ValidationError(f"table prefix {list(key)} contains out-of-vocabulary ids")
            _validate_step_output(out, info, len(key))
            self._table[key] = StepOutput(
                probs=np.asarray(out.probs, dtype=float),
                hidden_last=np.asarray(out.hidden_last, dtype=float),
                hidden_all=None
                if out.hidden_all is None
                else [np.asarray(h, dtype=float) for h in out.hidden_all],
            )

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
        info = BackendInfo(
            vocab_size=int(doc["info"]["vocab_size"]),
            hidden_dim=int(doc["info"]["hidden_dim"]),
            eou_token_id=int(doc["info"]["eou_token_id"]),
        )
        table = {}
        for entry in doc["table"]:
            table[tuple(entry["prefix"])] = StepOutput(
                probs=np.asarray(entry["probs"], dtype=float),
                hidden_last=np.asarray(entry["hidden_last"], dtype=float),
                hidden_all=None
                if "hidden_all" not in entry
                else [np.asarray(h, dtype=float) for h in entry["hidden_all"]],
            )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"scripted backend file is missing fields: {exc}") from exc
    return ScriptedBackend(info, table)


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def _softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


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

    @property
    def info(self) -> BackendInfo:
        return self._info

    def _attend(self, x: np.ndarray, blk: dict) -> np.ndarray:
        t, d = x.shape
        hd = d // self._heads
        q = (x @ blk["wq"]).reshape(t, self._heads, hd).transpose(1, 0, 2)
        k = (x @ blk["wk"]).reshape(t, self._heads, hd).transpose(1, 0, 2)
        v = (x @ blk["wv"]).reshape(t, self._heads, hd).transpose(1, 0, 2)
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(hd)
        mask = np.triu(np.full((t, t), -np.inf), k=1)
        att = _softmax(scores + mask)
        out = (att @ v).transpose(1, 0, 2).reshape(t, d)
        return out @ blk["wo"]

    def forward(self, prefix: Sequence[TokenId], want_all_hidden: bool = False) -> StepOutput:
        ids = self._check_prefix(prefix)
        t = len(ids)
        if t > self._max_seq_len:
            raise ArgumentError(f"prefix length {t} exceeds max_seq_len {self._max_seq_len}")
        x = self._tok_emb[ids] + self._pos_emb[:t]
        for blk in self._blocks:
            x = x + self._attend(_layer_norm(x, blk["ln1_g"], blk["ln1_b"]), blk)
            y = _layer_norm(x, blk["ln2_g"], blk["ln2_b"])
            x = x + _gelu(y @ blk["w1"] + blk["b1"]) @ blk["w2"] + blk["b2"]
        h = _layer_norm(x, self._lnf_g, self._lnf_b)
        # Tied-embedding logits, tempered so random weights yield spread-out
        # distributions instead of near-one-hot ones.
        logits = h[-1] @ self._tok_emb.T * 0.5
        return StepOutput(
            probs=_softmax(logits),
            hidden_last=h[-1],
            hidden_all=[h[i] for i in range(t)] if want_all_hidden else None,
        )


class RemoteBackend(Backend):
    """HTTP client for an inference server speaking the JSON wire protocol.

    The constructor performs the /info request and fails fast when the
    endpoint is unreachable or replies out of schema. Servers may return
    "logits" instead of "probs"; logits are normalized client-side with a
    softmax. The client keeps one requests.Session, which requests does not
    document as thread-safe: use one RemoteBackend per thread.
    """

    def __init__(self, endpoint_url: str, timeout: float = 10.0):
        self._url = endpoint_url.rstrip("/")
        self._timeout = timeout
        self._session = requests.Session()
        doc = self._request("GET", "/info")
        try:
            self._info = BackendInfo(
                vocab_size=int(doc["vocab_size"]),
                hidden_dim=int(doc["hidden_dim"]),
                eou_token_id=int(doc["eou_token_id"]),
            )
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            raise ProtocolError(f"bad /info response: {exc}") from exc

    @property
    def info(self) -> BackendInfo:
        return self._info

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        url = self._url + path
        try:
            resp = self._session.request(method, url, json=body, timeout=self._timeout)
        except requests.Timeout as exc:
            raise TimeoutError(f"{method} {url} timed out after {self._timeout}s") from exc
        except requests.RequestException as exc:
            raise ProtocolError(f"{method} {url} failed: {exc}") from exc
        if resp.status_code != 200:
            raise ProtocolError(f"{method} {url} returned HTTP {resp.status_code}")
        try:
            doc = resp.json()
        except ValueError as exc:
            raise ProtocolError(f"{method} {url} returned invalid JSON") from exc
        if not isinstance(doc, dict):
            raise ProtocolError(f"{method} {url} returned a non-object body")
        return doc

    def _vector(self, doc: dict, key: str, length: int) -> np.ndarray:
        if key not in doc:
            raise ProtocolError(f"response missing field {key!r}")
        try:
            v = np.asarray(doc[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"field {key!r} is not a numeric vector") from exc
        if v.shape != (length,):
            raise ProtocolError(f"field {key!r} has shape {v.shape}, expected ({length},)")
        if not np.all(np.isfinite(v)):
            raise ProtocolError(f"field {key!r} contains non-finite values")
        return v

    def _parse_probs(self, doc: dict) -> np.ndarray:
        v = self._info.vocab_size
        if "probs" in doc:
            probs = self._vector(doc, "probs", v)
            if np.any(probs < 0):
                raise ProtocolError("probs contains negative values")
            total = float(probs.sum())
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise ProtocolError(f"probs sums to {total}, expected 1 within {PROB_SUM_TOL}")
            return probs
        if "logits" in doc:
            return _softmax(self._vector(doc, "logits", v))
        raise ProtocolError("response has neither 'probs' nor 'logits'")

    def forward(self, prefix: Sequence[TokenId], want_all_hidden: bool = False) -> StepOutput:
        ids = self._check_prefix(prefix)
        doc = self._request(
            "POST",
            "/forward",
            {"tokens": ids, "return_hidden": "all" if want_all_hidden else "last"},
        )
        d = self._info.hidden_dim
        probs = self._parse_probs(doc)
        hidden_last = self._vector(doc, "hidden_last", d)
        hidden_all = None
        if want_all_hidden:
            if "hidden_all" not in doc or not isinstance(doc["hidden_all"], list):
                raise ProtocolError("response missing field 'hidden_all'")
            if len(doc["hidden_all"]) != len(ids):
                raise ProtocolError(
                    f"hidden_all has {len(doc['hidden_all'])} vectors for {len(ids)} tokens"
                )
            hidden_all = [self._vector({"h": row}, "h", d) for row in doc["hidden_all"]]
        return StepOutput(probs=probs, hidden_last=hidden_last, hidden_all=hidden_all)

    def forward_candidates(
        self, prefix: Sequence[TokenId], candidates: Sequence[TokenId]
    ) -> list[np.ndarray]:
        if not candidates:
            raise ArgumentError("candidates must be non-empty")
        ids = self._check_prefix(prefix)
        self._check_tokens(candidates, "candidate")
        doc = self._request(
            "POST",
            "/forward_batch",
            {"prefix": ids, "candidates": [int(c) for c in candidates]},
        )
        if "hidden" not in doc or not isinstance(doc["hidden"], list):
            raise ProtocolError("response missing field 'hidden'")
        if len(doc["hidden"]) != len(candidates):
            raise ProtocolError(
                f"hidden has {len(doc['hidden'])} vectors for {len(candidates)} candidates"
            )
        d = self._info.hidden_dim
        return [self._vector({"h": row}, "h", d) for row in doc["hidden"]]
