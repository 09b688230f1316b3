"""The six decoding strategies and the shared generation loop.

Every strategy is a pure function of (backend, context, config): sampling
draws come from a PCG64 stream seeded from the config, consumed one uniform
double at a time through inverse-CDF sampling, so identical seeds reproduce
identical runs on any platform. Probability ties are always resolved toward
the lower token id.
"""
from __future__ import annotations

import math
import time
from dataclasses import replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .backend import Backend, StepOutput
from .core import (
    CandidateScore,
    DialogueContext,
    GenerationResult,
    GenerationState,
    StepRecord,
    StrategyConfig,
    TokenId,
    validate_config,
)
from .encoding import EncodedContext, encode_context
from .errors import ArgumentError, RangeError
from .scoring import (
    degeneration_penalty,
    ips_score,
    isotropic_value,
    proximal_value,
    response_representation,
)


class Rng:
    """Deterministic draw source: a PCG64 generator consumed as uniform doubles.

    PCG64 is a 64-bit permuted congruential generator with a fixed,
    platform-independent stream; uniform doubles are derived from single
    64-bit outputs, so the draw sequence is reproducible everywhere.
    """

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.PCG64(int(seed)))

    def uniform(self) -> float:
        """Next double in [0, 1)."""
        return float(self._gen.random())


def _as_probs(probs) -> np.ndarray:
    v = np.asarray(probs, dtype=float)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ArgumentError(f"probability vector must be 1-D and non-empty, got shape {v.shape}")
    return v


def greedy_step(probs) -> TokenId:
    """Argmax of the distribution; ties go to the lowest token id."""
    return int(np.argmax(_as_probs(probs)))


def topk_set(probs, k: int) -> list[TokenId]:
    """The k highest-probability ids, ties resolved toward lower ids first."""
    v = _as_probs(probs)
    if not isinstance(k, int) or not 1 <= k <= v.shape[0]:
        raise RangeError("k", f"must be an integer in [1, {v.shape[0]}], got {k!r}")
    order = sorted(range(v.shape[0]), key=lambda i: (-v[i], i))
    return order[:k]


def nucleus_set(probs, p: float) -> list[TokenId]:
    """Smallest descending-probability prefix whose cumulative mass reaches p.

    Ties sort toward lower ids. If rounding keeps the cumulative sum below p
    (possible when the whole vector sums just under 1), the set is the full
    vocabulary.
    """
    v = _as_probs(probs)
    if not isinstance(p, (int, float)) or not 0.0 < p <= 1.0:
        raise RangeError("p", f"must lie in (0, 1], got {p!r}")
    order = sorted(range(v.shape[0]), key=lambda i: (-v[i], i))
    chosen: list[int] = []
    cum = 0.0
    for i in order:
        chosen.append(i)
        cum += float(v[i])
        if cum >= p:
            break
    return chosen


def _sample(ids: Sequence[int], weights: Sequence[float], rng: Rng) -> TokenId:
    total = float(sum(weights))
    u = rng.uniform() * total
    cum = 0.0
    for i, w in zip(ids, weights):
        cum += float(w)
        if u < cum:
            return int(i)
    return int(ids[-1])


def topk_step(probs, k: int, rng: Rng) -> TokenId:
    """Sample from the renormalized top-k of the distribution."""
    v = _as_probs(probs)
    ids = topk_set(v, k)
    return _sample(ids, [float(v[i]) for i in ids], rng)


def nucleus_step(probs, p: float, rng: Rng) -> TokenId:
    """Sample from the renormalized nucleus of the distribution."""
    v = _as_probs(probs)
    ids = nucleus_set(v, p)
    return _sample(ids, [float(v[i]) for i in ids], rng)


def _context_pass(backend: Backend, enc: EncodedContext) -> tuple[StepOutput, list[np.ndarray]]:
    """The one forward over the encoded context, with every hidden state.

    Returns that output, whose distribution is the first decoding step's,
    and the utterance representations read at the EOU positions.
    """
    out = backend.forward(list(enc.tokens), want_all_hidden=True)
    return out, [out.hidden_all[p] for p in enc.eou_positions]


def beam_search(
    backend: Backend, enc: EncodedContext, width: int, max_new_tokens: int
) -> GenerationResult:
    """Length-terminated beam over summed log probabilities.

    Beams that emit EOU are frozen; the highest-scoring finished beam wins
    (best unfinished one at the length cap when none finished), with ties
    going to the lexicographically smallest token sequence. The first
    expansion comes from the context pass, so the backend must serve the
    context with all hidden states.
    """
    if not isinstance(width, int) or width < 1:
        raise RangeError("beam_width", f"must be an integer >= 1, got {width!r}")
    t0 = time.perf_counter()
    info = backend.info
    eou = info.eou_token_id
    base = list(enc.tokens)
    ctx_out, utterance_reps = _context_pass(backend, enc)

    # Each beam: (tokens, total logprob, per-token model probs).
    live: list[tuple[tuple[int, ...], float, tuple[float, ...]]] = [((), 0.0, ())]
    finished: list[tuple[tuple[int, ...], float, tuple[float, ...]]] = []
    for _ in range(max_new_tokens):
        candidates = []
        for tokens, logp, probs_path in live:
            out = backend.forward(base + list(tokens)) if tokens else ctx_out
            step_probs = np.asarray(out.probs, dtype=float)
            for t in range(info.vocab_size):
                pt = float(step_probs[t])
                lpt = logp + (math.log(pt) if pt > 0.0 else -math.inf)
                candidates.append((tokens + (t,), lpt, probs_path + (pt,)))
        candidates.sort(key=lambda c: (-c[1], c[0]))
        live = []
        for cand in candidates[:width]:
            if cand[0][-1] == eou:
                finished.append(cand)
            else:
                live.append(cand)
        if not live:
            break

    pool = finished if finished else live
    tokens, _, probs_path = min(pool, key=lambda c: (-c[1], c[0]))
    return GenerationResult(
        tokens=list(tokens),
        per_step=[StepRecord(token=t, prob=p) for t, p in zip(tokens, probs_path)],
        stop_reason="eou" if tokens and tokens[-1] == eou else "max_len",
        elapsed=time.perf_counter() - t0,
        utterance_reps=utterance_reps,
    )


def _sample_token(rule: str, probs: np.ndarray, cfg: StrategyConfig, rng: Rng) -> TokenId:
    """One draw under a sampling rule: the greedy, topk and nucleus
    strategies, and the bootstrap steps of the isotropic-proximal search."""
    if rule == "topk":
        return topk_step(probs, cfg.bootstrap_k, rng)
    if rule == "nucleus":
        return nucleus_step(probs, cfg.bootstrap_p, rng)
    return greedy_step(probs)


def _ips_candidate(
    state: GenerationState, cfg: StrategyConfig, token: TokenId, prob: float, hidden: np.ndarray
) -> CandidateScore:
    p_val = proximal_value(hidden, state.generated_hiddens)
    if cfg.strict_isotropy and state.step >= 1:
        rep = state.response_rep
    else:
        rep = response_representation(state.generated_hiddens, candidate=hidden)
    i_val = isotropic_value(rep, state.utterance_reps)
    return CandidateScore(
        token=token,
        prob=prob,
        p_value=p_val,
        i_value=i_val,
        score=ips_score(prob, p_val, i_val, cfg),
        hidden=hidden,
    )


def _contrastive_candidate(
    prefix_hiddens: list[np.ndarray], alpha: float, token: TokenId, prob: float, hidden: np.ndarray
) -> CandidateScore:
    """Confidence minus max similarity to any prefix token (context and
    generated alike)."""
    penalty = degeneration_penalty(hidden, prefix_hiddens)
    return CandidateScore(
        token=token,
        prob=prob,
        penalty=penalty,
        score=(1.0 - alpha) * prob - alpha * penalty,
        hidden=hidden,
    )


def _search_step(
    backend: Backend,
    prefix: list[int],
    probs: np.ndarray,
    m: int,
    score: Callable[[TokenId, float, np.ndarray], CandidateScore],
) -> tuple[StepRecord, np.ndarray]:
    """Probe the top-m candidates and keep the best-scoring one.

    Returns the step record, with every candidate's breakdown, and the
    chosen candidate's hidden state.
    """
    ids = sorted(topk_set(probs, m))
    hiddens = backend.forward_candidates(prefix, ids)
    scored = [score(token, float(probs[token]), hidden) for token, hidden in zip(ids, hiddens)]
    # Candidates are in ascending token-id order; strict > keeps the lowest
    # id on ties.
    best = scored[0]
    for cand in scored[1:]:
        if cand.score > best.score:
            best = cand
    record = StepRecord(
        token=best.token,
        prob=best.prob,
        p_value=best.p_value,
        i_value=best.i_value,
        score=best.score,
        candidates=scored,
    )
    return record, best.hidden


def generate(backend: Backend, ctx: DialogueContext, cfg: StrategyConfig) -> GenerationResult:
    """Run one full generation: encode, cache utterance representations, decode.

    Stops at the first generated EOU or at max_new_tokens. The context pass
    supplies both the utterance representations and the first step's
    distribution; each later step runs one forward over the prefix. The
    contrastive and isotropic-proximal strategies score the model's top-m
    candidates; for the latter, the first bootstrap_n steps use the
    configured bootstrap rule, and later steps are deterministic given the
    prefix.
    """
    info = backend.info
    validate_config(cfg, info.vocab_size)
    t0 = time.perf_counter()
    enc = encode_context(ctx, info.eou_token_id)

    if cfg.strategy == "beam":
        result = beam_search(backend, enc, cfg.beam_width, cfg.max_new_tokens)
        return replace(result, elapsed=time.perf_counter() - t0)

    ctx_out, utterance_reps = _context_pass(backend, enc)
    state = GenerationState(utterance_reps=utterance_reps)
    rule = cfg.bootstrap_strategy if cfg.strategy == "ips" else cfg.strategy
    rng = Rng(cfg.seed)
    records: list[StepRecord] = []
    generated: list[int] = []
    probs = np.asarray(ctx_out.probs, dtype=float)
    stop_reason = "max_len"

    while True:
        prefix = list(enc.tokens) + generated
        if cfg.strategy == "contrastive":
            score = partial(
                _contrastive_candidate, list(ctx_out.hidden_all) + state.generated_hiddens, cfg.alpha
            )
            record, hidden = _search_step(backend, prefix, probs, cfg.m, score)
            state.append(record.token, hidden)
        elif cfg.strategy == "ips" and state.step >= cfg.bootstrap_n:
            score = partial(_ips_candidate, state, cfg)
            record, hidden = _search_step(backend, prefix, probs, cfg.m, score)
            state.append(record.token, hidden)
        else:
            token = _sample_token(rule, probs, cfg, rng)
            record = StepRecord(token=token, prob=float(probs[token]))
            if cfg.strategy == "ips":
                state.append(token, backend.forward_candidates(prefix, [token])[0])

        generated.append(record.token)
        records.append(record)
        if record.token == info.eou_token_id:
            stop_reason = "eou"
            break
        if len(generated) == cfg.max_new_tokens:
            break
        probs = np.asarray(backend.forward(prefix + [record.token]).probs, dtype=float)

    return GenerationResult(
        tokens=generated,
        per_step=records,
        stop_reason=stop_reason,
        elapsed=time.perf_counter() - t0,
        utterance_reps=utterance_reps,
    )
