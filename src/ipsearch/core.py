"""Domain types, decoding configuration, and validation shared by all modules.

Token ids are plain non-negative ints; hidden vectors are 1-D float64 numpy
arrays whose length is the backend's hidden dimension.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ArgumentError, RangeError

if TYPE_CHECKING:
    from .backend import Session

TokenId = int

STRATEGIES = ("greedy", "beam", "topk", "nucleus", "contrastive", "ips")
PENALTY_FORMS = ("eq5", "beta")
BOOTSTRAP_STRATEGIES = ("topk", "nucleus", "greedy")

_MAX_SEED = 2**64 - 1


def _is_int(value) -> bool:
    # bool is a subclass of int, but True is not a width or a seed.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    # The rule for token ids: an int or a numpy integer. bool is a subclass
    # of int, and numpy's bool_ of neither, but True is not token 1.
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class DialogueContext:
    """An ordered, non-empty list of utterances, each a non-empty list or
    tuple of token ids."""

    utterances: list[list[TokenId]]

    def validate(self) -> "DialogueContext":
        if not self.utterances:
            raise ArgumentError("dialogue context must contain at least one utterance")
        for i, utt in enumerate(self.utterances):
            if not isinstance(utt, (list, tuple)):
                raise ArgumentError(f"utterance {i} is not a list of token ids: {utt!r}")
            if not utt:
                raise ArgumentError(f"utterance {i} is empty")
            # A plain int skips the call.
            if any((type(t) is not int and not _is_integer(t)) or t < 0 for t in utt):
                raise ArgumentError(f"utterance {i} contains a non-token value")
        return self


@dataclass(frozen=True)
class StrategyConfig:
    """Which decoder to run and every knob it needs.

    ``alpha`` weighs model confidence against the proximal/isotropic penalty,
    ``m`` sizes the candidate set, and the ``bootstrap_*`` fields control the
    stochastic warm-up steps before the deterministic search takes over.
    ``bootstrap_k`` / ``bootstrap_p`` also serve as the k / p of the standalone
    top-k and nucleus strategies (they are the only k / p in the config).
    ``strict_isotropy`` computes the isotropic term from already-generated
    tokens only (ablation mode; it is then constant across candidates).
    """

    strategy: str = "ips"
    alpha: float = 0.6
    beta: float = 0.5
    penalty_form: str = "eq5"
    m: int = 6
    bootstrap_n: int = 2
    bootstrap_strategy: str = "topk"
    bootstrap_k: int = 7
    bootstrap_p: float = 0.9
    beam_width: int = 4
    max_new_tokens: int = 64
    seed: int = 0
    strict_isotropy: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "StrategyConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ArgumentError(f"unknown config field(s): {', '.join(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "StrategyConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ArgumentError("config document must be a JSON object")
        return cls.from_dict(data)

    def replace(self, **changes) -> "StrategyConfig":
        return replace(self, **changes)


def validate_config(cfg: StrategyConfig, vocab_size: int) -> StrategyConfig:
    """Check every range invariant of ``cfg`` against a vocabulary size.

    Returns ``cfg`` unchanged; raises RangeError naming the first offending
    field otherwise.
    """
    if cfg.strategy not in STRATEGIES:
        raise RangeError("strategy", f"must be one of {STRATEGIES}, got {cfg.strategy!r}")
    if not _is_real(cfg.alpha) or not 0.0 <= cfg.alpha <= 1.0:
        raise RangeError("alpha", f"must lie in [0, 1], got {cfg.alpha!r}")
    if not _is_real(cfg.beta) or not 0.0 <= cfg.beta <= 1.0:
        raise RangeError("beta", f"must lie in [0, 1], got {cfg.beta!r}")
    if cfg.penalty_form not in PENALTY_FORMS:
        raise RangeError("penalty_form", f"must be one of {PENALTY_FORMS}, got {cfg.penalty_form!r}")
    if not _is_int(cfg.m) or cfg.m < 1:
        raise RangeError("m", f"must be an integer >= 1, got {cfg.m!r}")
    if cfg.m > vocab_size:
        raise RangeError("m", f"must be <= vocab_size ({cfg.m} > {vocab_size})")
    if not _is_int(cfg.bootstrap_n) or cfg.bootstrap_n < 0:
        raise RangeError("bootstrap_n", f"must be an integer >= 0, got {cfg.bootstrap_n!r}")
    if cfg.bootstrap_strategy not in BOOTSTRAP_STRATEGIES:
        raise RangeError(
            "bootstrap_strategy",
            f"must be one of {BOOTSTRAP_STRATEGIES}, got {cfg.bootstrap_strategy!r}",
        )
    if not _is_int(cfg.bootstrap_k) or cfg.bootstrap_k < 1:
        raise RangeError("bootstrap_k", f"must be an integer >= 1, got {cfg.bootstrap_k!r}")
    if cfg.bootstrap_k > vocab_size:
        raise RangeError("bootstrap_k", f"must be <= vocab_size ({cfg.bootstrap_k} > {vocab_size})")
    if not _is_real(cfg.bootstrap_p) or not 0.0 < cfg.bootstrap_p <= 1.0:
        raise RangeError("bootstrap_p", f"must lie in (0, 1], got {cfg.bootstrap_p!r}")
    if not _is_int(cfg.beam_width) or cfg.beam_width < 1:
        raise RangeError("beam_width", f"must be an integer >= 1, got {cfg.beam_width!r}")
    if not _is_int(cfg.max_new_tokens) or cfg.max_new_tokens < 1:
        raise RangeError("max_new_tokens", f"must be an integer >= 1, got {cfg.max_new_tokens!r}")
    if not _is_int(cfg.seed) or not 0 <= cfg.seed <= _MAX_SEED:
        raise RangeError("seed", f"must be a 64-bit unsigned integer, got {cfg.seed!r}")
    if not isinstance(cfg.strict_isotropy, bool):
        raise RangeError("strict_isotropy", f"must be a boolean, got {cfg.strict_isotropy!r}")
    return cfg


@dataclass(frozen=True, eq=False)  # its own __eq__ below, and so no __hash__
class CandidateScore:
    """Scoring breakdown of one candidate token, or of a search step's m
    candidates as columns: ids in ascending order, read-only float64 scores
    and the probe's (m, d) ``hidden``. ``len``, indexing and iteration give
    each candidate's own record, of plain numbers and a row view of ``hidden``."""

    token: TokenId
    prob: float
    p_value: Optional[float] = None
    i_value: Optional[float] = None
    penalty: Optional[float] = None
    score: Optional[float] = None
    hidden: Optional[np.ndarray] = None

    def __eq__(self, other) -> bool:
        # Field by field, each compared as an array: == on a column or on
        # ``hidden`` gives an array, not one truth value.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def __len__(self) -> int:
        return len(self.token)

    def __bool__(self) -> bool:
        return True  # one candidate's record has no len

    def __getitem__(self, i: int) -> "CandidateScore":
        # Iteration runs on this, up to numpy's IndexError past the end.
        values = (self.p_value, self.i_value, self.penalty, self.score)
        scores = [None if v is None else float(v[i]) for v in values]
        return CandidateScore(int(self.token[i]), float(self.prob[i]), *scores, self.hidden[i])


@dataclass(frozen=True)
class StepRecord:
    """Trace of one decoding step: the chosen token and how it scored.

    ``candidates`` carries the search strategies' per-candidate breakdown,
    as columns; plain sampling steps leave it (and the score fields) unset.
    """

    token: TokenId
    prob: float
    p_value: Optional[float] = None
    i_value: Optional[float] = None
    score: Optional[float] = None
    candidates: Optional[CandidateScore] = None


@dataclass
class GenerationResult:
    """Outcome of one generation run.

    ``utterance_reps`` is a float64 (utterances, d) matrix: row i is the
    hidden state at the i-th EOU separator of the context, read from the
    context pass the decoder ran. ``session`` is the decoding session that
    chose the last token: its prefix is the context and every reply token
    but the last, so ``session.extend(tokens[-1]).hidden_all`` has a hidden
    state for every token of context and reply.
    """

    tokens: list[TokenId]
    per_step: list[StepRecord]
    stop_reason: str  # "eou" | "max_len"
    elapsed: float
    utterance_reps: Optional[np.ndarray] = None
    session: Optional[Session] = None
