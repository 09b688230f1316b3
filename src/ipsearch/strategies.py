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
from functools import partial
from typing import Callable

import numpy as np

from .backend import Backend, Session, _read_only
from .core import (
    CandidateScore,
    DialogueContext,
    GenerationResult,
    StepRecord,
    StrategyConfig,
    TokenId,
    _is_int,
    _is_real,
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


def _descending(v: np.ndarray, kind: str | None = "stable", k: int = 64):
    """Chunks which, joined, order ``v`` as ``np.argsort(-v, kind=kind)``
    does (ties may differ if ``kind`` is not stable). If 2k covers ``v``: one
    chunk, in a tuple, about 0.3 µs cheaper to iterate than a generator."""
    if 2 * k >= len(v):
        return (np.argsort(-v, kind=kind),)
    return _chunks(-v, kind, k)


def _chunks(neg: np.ndarray, kind: str | None, k: int):
    # A chunk: the ids not yet taken at or above their k-th value (ties stay
    # whole), sorted. k grows x4; once 2k covers what is left, all of it.
    ids = None  # the ids not yet taken, once some are
    while 2 * k < len(neg):
        # Empty when fewer than k non-NaN ids are left: the k-th is NaN.
        head = neg <= np.partition(neg, k - 1)[k - 1]
        top = np.flatnonzero(head)
        top = top[np.argsort(neg[top], kind=kind)]
        yield top if ids is None else ids[top]
        rest = np.flatnonzero(~head)
        ids, neg = rest if ids is None else ids[rest], neg[rest]
        k *= 4
    yield ids[np.argsort(neg, kind=kind)]


def topk_set(probs, k: int) -> list[TokenId]:
    """The k highest-probability ids, ties resolved toward lower ids first;
    only the ids at or above the k-th value are sorted (a `_descending` chunk)."""
    v = _as_probs(probs)
    if not _is_int(k) or not 1 <= k <= v.shape[0]:
        raise RangeError("k", f"must be an integer in [1, {v.shape[0]}], got {k!r}")
    neg = -v
    # The ids at or above the k-th largest value, in id order, hold the
    # answer without sorting the others. A NaN k-th value (fewer than k
    # non-NaN entries) selects none, so every id is sorted.
    top = np.flatnonzero(neg <= np.partition(neg, k - 1)[k - 1])
    if len(top) < k:
        top = np.arange(len(v))
    # The stable sort keeps tied ids in ascending order.
    return top[np.argsort(neg[top], kind="stable")][:k].tolist()


def nucleus_set(probs, p: float) -> list[TokenId]:
    """Smallest descending-probability prefix whose cumulative mass reaches p.

    Ties sort toward lower ids. If rounding keeps the cumulative sum below p
    (possible when the whole vector sums just under 1), the set is the full
    vocabulary. Only the chunks up to the one reaching p are sorted.
    """
    v = _as_probs(probs)
    if not _is_real(p) or not 0.0 < p <= 1.0:
        raise RangeError("p", f"must lie in (0, 1], got {p!r}")
    # A p within rounding of the whole mass needs (nearly) every id: then one
    # chunk, one sort. (Up to 128 ids are one chunk anyway: no sum there.)
    whole = len(v) > 128 and p >= v.sum() * (1.0 - len(v) * 2.0**-53)
    order = None
    for chunk in _descending(v, k=len(v) if whole else 64):
        order = chunk if order is None else np.concatenate((order, chunk))
        # cumsum adds in sequence, from the first id on (no carried total),
        # so each partial sum is the running float sum.
        reached = np.cumsum(v[order]) >= p
        if reached.any():
            return order[: int(np.argmax(reached)) + 1].tolist()
    return order.tolist()


def _sample(probs, ids: list[int], rng: Rng) -> TokenId:
    # Inverse CDF over the running sums of probs[ids], in order: cumsum adds
    # in sequence on every Python version, where the built-in sum does not.
    cum = np.asarray(probs, dtype=float)[ids].cumsum()
    i = cum.searchsorted(rng.uniform() * cum[-1], side="right")
    return ids[i] if i < len(ids) else ids[-1]


def topk_step(probs, k: int, rng: Rng) -> TokenId:
    """Sample from the renormalized top-k of the distribution."""
    return _sample(probs, topk_set(probs, k), rng)


def nucleus_step(probs, p: float, rng: Rng) -> TokenId:
    """Sample from the renormalized nucleus of the distribution."""
    return _sample(probs, nucleus_set(probs, p), rng)


def beam_search(
    backend: Backend, enc: EncodedContext, width: int, max_new_tokens: int
) -> GenerationResult:
    """Length-terminated beam over summed log probabilities.

    Each step keeps the ``width`` best extensions of all live beams, ranked
    by total log probability with ties going to the lexicographically
    smallest token sequence. Beams that emit EOU are frozen; the
    highest-scoring finished beam wins (best unfinished one at the length
    cap when none finished), under the same tie rule.

    A beam's extensions are scored in descending-probability order and the
    walk stops a few ulps below its ``width``-th score, so only a handful
    of each beam's V tokens are scored. Every extension that could enter
    the step's top ``width``, ties included, is still scored, so every
    decision is the one an exhaustive width x V ranking makes.
    """
    # Beam reads neither m nor bootstrap_k, and 1 passes at any vocabulary size.
    cfg = StrategyConfig(strategy="beam", beam_width=width, max_new_tokens=max_new_tokens, m=1, bootstrap_k=1)
    validate_config(cfg, backend.info.vocab_size)
    return _decode(backend, enc, cfg, time.perf_counter())


def _beam_expansion(width: int):
    """Beam's step rule: a beam's extensions that could make the step's top
    ``width``, scored by total log probability, with their probabilities."""

    def walk(session: Session, tokens: tuple[int, ...], logp: float) -> list:
        probs = session.probs
        # Walk descending p a chunk at a time, sorting the next only while the
        # walk goes on. Once the beam holds `width` candidates, none scoring
        # below the least of them (the cut) can make the step's top `width`;
        # one tying the cut still can, on the token tie-break. Tied p may come
        # in any order (so the default sort serves): they share one score, so
        # the cut and the set kept do not depend on their order, and the
        # pooled ranking orders them by tokens. Scores only fall along the walk
        # up to math.log's error: under 1 ulp per call, so a later (smaller) p
        # can outscore an earlier one by under 2 ulp, plus under 1 ulp from
        # rounding the sum (p <= 1 keeps every score <= 0, so these ulps are
        # at most ulp(cut) for any score near the cut). The walk therefore
        # stops 4 ulp(cut) below the cut. A cut of -inf keeps every -inf
        # candidate, as the exhaustive ranking does.
        floor = -math.inf
        kept = []
        for chunk in _descending(probs, None):
            for t in chunk.tolist():
                pt = probs.item(t)
                lpt = logp + (math.log(pt) if pt > 0.0 else -math.inf)
                if lpt < floor:
                    return kept
                kept.append((t, lpt, pt))
                if len(kept) == width:
                    cut = min([c[1] for c in kept])  # a list: faster than a generator
                    floor = cut - 4 * math.ulp(cut)
        return kept

    return walk


def _sample_token(rule: str, probs: np.ndarray, cfg: StrategyConfig, rng: Rng) -> TokenId:
    """One draw under a sampling rule: the greedy, topk and nucleus
    strategies, and the bootstrap steps of the isotropic-proximal search."""
    if rule == "topk":
        return topk_step(probs, cfg.bootstrap_k, rng)
    if rule == "nucleus":
        return nucleus_step(probs, cfg.bootstrap_p, rng)
    return greedy_step(probs)


def _ips_scores(
    generated: np.ndarray, utterance_reps: np.ndarray, cfg: StrategyConfig,
    probs: np.ndarray, hiddens: np.ndarray,
) -> dict[str, np.ndarray]:
    """Proximal and isotropic values and the IPS score of every candidate row,
    given the generated tokens' and the utterances' hidden states as rows."""
    p_val = proximal_value(hiddens, generated)
    if cfg.strict_isotropy and len(generated):
        # Strict isotropy reads the tokens generated so far only, so it is the
        # same for every candidate.
        i_val = np.full(len(hiddens), isotropic_value(response_representation(generated), utterance_reps))
    else:
        i_val = isotropic_value(response_representation(generated, candidate=hiddens), utterance_reps)
    return {"p_value": p_val, "i_value": i_val, "score": ips_score(probs, p_val, i_val, cfg)}


def _contrastive_scores(
    prefix_hiddens: np.ndarray, alpha: float, probs: np.ndarray, hiddens: np.ndarray
) -> dict[str, np.ndarray]:
    """Confidence minus max similarity to any prefix token (context and
    generated alike), for every candidate row."""
    penalty = degeneration_penalty(hiddens, prefix_hiddens)
    return {"penalty": penalty, "score": (1.0 - alpha) * probs - alpha * penalty}


def _search_step(
    session: Session, m: int, score: Callable[[np.ndarray, np.ndarray], dict[str, np.ndarray]]
) -> tuple[StepRecord, np.ndarray]:
    """Probe the top-m candidates and keep the best-scoring one.

    ``score`` maps the candidates' probabilities and hidden states to a
    column for each CandidateScore field it fills. Returns the step record,
    with those columns, and the chosen candidate's hidden state.
    """
    probs = session.probs
    ids = sorted(topk_set(probs, m))
    prob = _read_only(probs[ids])
    hiddens = session.probe(ids)
    columns = {name: _read_only(values) for name, values in score(prob, hiddens).items()}
    candidates = CandidateScore(_read_only(ids, int), prob, hidden=hiddens, **columns)
    # Candidates are in ascending token-id order, and argmax keeps the first
    # maximum, so ties go to the lowest id.
    best = candidates[np.argmax(candidates.score)]
    record = StepRecord(best.token, best.prob, best.p_value, best.i_value, best.score, candidates)
    return record, best.hidden


def _one_token_expansion(cfg: StrategyConfig, root: Session, utterance_reps: np.ndarray):
    """The step rule of the five other strategies: the one token each step
    chooses. Only one hypothesis is ever live, so the reply's draw stream
    and hidden-state rows belong to the rule."""
    rule = cfg.bootstrap_strategy if cfg.strategy == "ips" else cfg.strategy
    rng = Rng(cfg.seed)
    # The hidden states candidates are compared with, one row each: the
    # context's, then each generated token's, in a buffer that doubles when
    # full. Contrastive search reads all of them, IPS the generated ones.
    rows = root.hidden_all
    c = len(rows)

    def choose(session: Session, tokens: tuple[int, ...], _score: float) -> list:
        nonlocal rows
        n = c + len(tokens)
        if n == len(rows):
            rows = np.concatenate((rows, np.empty_like(rows)))
        if cfg.strategy == "contrastive":
            score = partial(_contrastive_scores, rows[:n], cfg.alpha)
        elif cfg.strategy == "ips" and len(tokens) >= cfg.bootstrap_n:
            score = partial(_ips_scores, rows[c:n], utterance_reps, cfg)
        else:
            probs = session.probs
            token = _sample_token(rule, probs, cfg, rng)
            if cfg.strategy == "ips":
                rows[n] = session.probe([token])[0]
            return [(token, 0.0, float(probs[token]))]
        step, rows[n] = _search_step(session, cfg.m, score)
        return [(step.token, 0.0, step)]

    return choose


def _decode(backend: Backend, enc: EncodedContext, cfg: StrategyConfig, t0: float) -> GenerationResult:
    """The decode loop of every strategy, on one session opened on the context.

    A hypothesis is (tokens, score, steps, the session before its last
    token). The strategy's step rule maps a live hypothesis's session,
    tokens and score to its (token, score, step) extensions; a step is a
    StepRecord, or a bare probability built into one only for the winner.
    Each step keeps the ``width`` best by (-score, tokens) and freezes those
    ending in EOU; the best finished one wins, or the best live one at the
    length cap. A session is extended by a hypothesis's last token only when
    it goes on.
    """
    eou = backend.info.eou_token_id
    root = backend.open(enc.tokens)
    utterance_reps = root.hidden_all[list(enc.eou_positions)]
    beam = cfg.strategy == "beam"
    width = cfg.beam_width if beam else 1
    expand = _beam_expansion(width) if beam else _one_token_expansion(cfg, root, utterance_reps)
    live = [((), 0.0, (), root)]
    finished = []
    for _ in range(cfg.max_new_tokens):
        pool = []
        for tokens, score, steps, session in live:
            if tokens:
                session = session.extend(tokens[-1])
            for t, s, step in expand(session, tokens, score):
                pool.append((tokens + (t,), s, steps + (step,), session))
        pool.sort(key=lambda h: (-h[1], h[0]))
        live = []
        for hyp in pool[:width]:
            (finished if hyp[0][-1] == eou else live).append(hyp)
        if not live:
            break
    tokens, _, steps, session = min(finished or live, key=lambda h: (-h[1], h[0]))
    return GenerationResult(
        tokens=list(tokens),
        per_step=[StepRecord(t, s) if isinstance(s, float) else s for t, s in zip(tokens, steps)],
        stop_reason="eou" if tokens[-1] == eou else "max_len",
        elapsed=time.perf_counter() - t0,
        utterance_reps=utterance_reps,
        session=session,
    )


def generate(backend: Backend, ctx: DialogueContext, cfg: StrategyConfig) -> GenerationResult:
    """Run one full generation: encode, cache utterance representations, decode.

    Stops at the first generated EOU or at max_new_tokens. Every strategy
    runs the one decode loop on one backend session: beam keeps
    ``beam_width`` hypotheses, and the others one, extended by the token
    each step chooses. The contrastive and isotropic-proximal strategies
    probe the model's top-m candidates on the session; for the latter, the
    first bootstrap_n steps use the configured bootstrap rule, and later
    steps are deterministic given the prefix.
    """
    info = backend.info
    validate_config(cfg, info.vocab_size)
    t0 = time.perf_counter()
    enc = encode_context(ctx, info.eou_token_id)
    return _decode(backend, enc, cfg, t0)
