"""Domain types, decoding configuration, and validation shared by all modules.

Token ids are plain non-negative ints; hidden vectors are 1-D float64 numpy
arrays whose length is the backend's hidden dimension.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ArgumentError, DimensionError, RangeError

TokenId = int

STRATEGIES = ("greedy", "beam", "topk", "nucleus", "contrastive", "ips")
PENALTY_FORMS = ("eq5", "beta")
BOOTSTRAP_STRATEGIES = ("topk", "nucleus", "greedy")

_MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class DialogueContext:
    """An ordered, non-empty list of utterances, each a non-empty token-id list."""

    utterances: list[list[TokenId]]

    def validate(self) -> "DialogueContext":
        if not self.utterances:
            raise ArgumentError("dialogue context must contain at least one utterance")
        for i, utt in enumerate(self.utterances):
            if not utt:
                raise ArgumentError(f"utterance {i} is empty")
            if any((not isinstance(t, int)) or t < 0 for t in utt):
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
    if not isinstance(cfg.alpha, (int, float)) or not 0.0 <= cfg.alpha <= 1.0:
        raise RangeError("alpha", f"must lie in [0, 1], got {cfg.alpha!r}")
    if not isinstance(cfg.beta, (int, float)) or not 0.0 <= cfg.beta <= 1.0:
        raise RangeError("beta", f"must lie in [0, 1], got {cfg.beta!r}")
    if cfg.penalty_form not in PENALTY_FORMS:
        raise RangeError("penalty_form", f"must be one of {PENALTY_FORMS}, got {cfg.penalty_form!r}")
    if not isinstance(cfg.m, int) or cfg.m < 1:
        raise RangeError("m", f"must be an integer >= 1, got {cfg.m!r}")
    if cfg.m > vocab_size:
        raise RangeError("m", f"must be <= vocab_size ({cfg.m} > {vocab_size})")
    if not isinstance(cfg.bootstrap_n, int) or cfg.bootstrap_n < 0:
        raise RangeError("bootstrap_n", f"must be an integer >= 0, got {cfg.bootstrap_n!r}")
    if cfg.bootstrap_strategy not in BOOTSTRAP_STRATEGIES:
        raise RangeError(
            "bootstrap_strategy",
            f"must be one of {BOOTSTRAP_STRATEGIES}, got {cfg.bootstrap_strategy!r}",
        )
    if not isinstance(cfg.bootstrap_k, int) or cfg.bootstrap_k < 1:
        raise RangeError("bootstrap_k", f"must be an integer >= 1, got {cfg.bootstrap_k!r}")
    if cfg.bootstrap_k > vocab_size:
        raise RangeError("bootstrap_k", f"must be <= vocab_size ({cfg.bootstrap_k} > {vocab_size})")
    if not isinstance(cfg.bootstrap_p, (int, float)) or not 0.0 < cfg.bootstrap_p <= 1.0:
        raise RangeError("bootstrap_p", f"must lie in (0, 1], got {cfg.bootstrap_p!r}")
    if not isinstance(cfg.beam_width, int) or cfg.beam_width < 1:
        raise RangeError("beam_width", f"must be an integer >= 1, got {cfg.beam_width!r}")
    if not isinstance(cfg.max_new_tokens, int) or cfg.max_new_tokens < 1:
        raise RangeError("max_new_tokens", f"must be an integer >= 1, got {cfg.max_new_tokens!r}")
    if not isinstance(cfg.seed, int) or not 0 <= cfg.seed <= _MAX_SEED:
        raise RangeError("seed", f"must be a 64-bit unsigned integer, got {cfg.seed!r}")
    if not isinstance(cfg.strict_isotropy, bool):
        raise RangeError("strict_isotropy", f"must be a boolean, got {cfg.strict_isotropy!r}")
    return cfg


@dataclass
class GenerationState:
    """Single-writer state of one generation run.

    ``response_rep`` is the running mean of ``generated_hiddens``; it is
    maintained from an exact running sum so it matches a from-scratch mean
    to well under 1e-9 per component.
    """

    utterance_reps: list[np.ndarray]
    generated: list[TokenId] = field(default_factory=list)
    generated_hiddens: list[np.ndarray] = field(default_factory=list)
    response_rep: Optional[np.ndarray] = None
    step: int = 0
    _hidden_sum: Optional[np.ndarray] = field(default=None, repr=False)

    def append(self, token: TokenId, hidden) -> None:
        h = np.asarray(hidden, dtype=float)
        if h.ndim != 1:
            raise DimensionError(f"hidden vector must be 1-D, got shape {h.shape}")
        if self.generated_hiddens and h.shape != self.generated_hiddens[0].shape:
            raise DimensionError(
                f"hidden length {h.shape[0]} != {self.generated_hiddens[0].shape[0]}"
            )
        self.generated.append(int(token))
        self.generated_hiddens.append(h)
        self._hidden_sum = h.copy() if self._hidden_sum is None else self._hidden_sum + h
        self.step += 1
        self.response_rep = self._hidden_sum / self.step


@dataclass(frozen=True)
class CandidateScore:
    """Scoring breakdown for one candidate token at one step."""

    token: TokenId
    prob: float
    p_value: Optional[float] = None
    i_value: Optional[float] = None
    penalty: Optional[float] = None
    score: Optional[float] = None
    hidden: Optional[np.ndarray] = None


@dataclass(frozen=True)
class StepRecord:
    """Trace of one decoding step: the chosen token and how it scored.

    ``candidates`` carries the full per-candidate breakdown for the search
    strategies; plain sampling steps leave it (and the score fields) unset.
    """

    token: TokenId
    prob: float
    p_value: Optional[float] = None
    i_value: Optional[float] = None
    score: Optional[float] = None
    candidates: Optional[list[CandidateScore]] = None


@dataclass
class GenerationResult:
    """Outcome of one generation run.

    ``utterance_reps`` holds the hidden state at each EOU separator of the
    context, read from the context pass the decoder ran.
    """

    tokens: list[TokenId]
    per_step: list[StepRecord]
    stop_reason: str  # "eou" | "max_len"
    elapsed: float
    text: Optional[str] = None
    utterance_reps: Optional[list[np.ndarray]] = None
