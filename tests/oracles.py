"""Independent brute-force reimplementations used as test oracles.

Pure-Python floats and loops only: these deliberately share no code path
with the package (which is numpy-based), so agreement is meaningful. The
two full-sort selection references are the exception: numpy, because a
pure-Python sort of 50257 ids is too slow for a property test.
"""
from __future__ import annotations

import math

import numpy as np


def o_cosine(a, b) -> float:
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(sum(float(x) * float(x) for x in a))
    nb = math.sqrt(sum(float(y) * float(y) for y in b))
    return min(1.0, max(-1.0, dot / (na * nb)))


def o_response_representation(hiddens, candidate=None) -> list[float]:
    rows = [list(map(float, h)) for h in hiddens]
    if candidate is not None:
        rows.append(list(map(float, candidate)))
    n = len(rows)
    return [sum(row[j] for row in rows) / n for j in range(len(rows[0]))]


def o_proximal_value(candidate_hidden, generated_hiddens) -> float:
    if not generated_hiddens:
        return 0.0
    sims = [o_cosine(candidate_hidden, h) for h in generated_hiddens]
    return sum(sims) / len(sims)


def o_isotropic_value(response_rep, utterance_reps) -> float:
    sims = [o_cosine(response_rep, u) for u in utterance_reps]
    return sum(sims) / len(sims)


def o_ips_score(prob, p_value, i_value, alpha, beta=0.5, penalty_form="eq5") -> float:
    if penalty_form == "beta":
        penalty = (1.0 - beta) * p_value - beta * i_value
    else:
        penalty = p_value - i_value
    return alpha * prob + (1.0 - alpha) * penalty


def o_degeneration_penalty(candidate_hidden, prefix_hiddens) -> float:
    return max(o_cosine(candidate_hidden, h) for h in prefix_hiddens)


def o_top_m(probs, m) -> list[int]:
    """Top-m ids of a distribution, ties toward lower ids."""
    order = sorted(range(len(probs)), key=lambda i: (-float(probs[i]), i))
    return order[:m]


def o_nucleus(probs, p) -> list[int]:
    """Smallest descending-probability prefix reaching mass p (all ids if never)."""
    order = sorted(range(len(probs)), key=lambda i: (-float(probs[i]), i))
    chosen, cum = [], 0.0
    for i in order:
        chosen.append(i)
        cum += float(probs[i])
        if cum >= p:
            break
    return chosen


def o_topk_full_sort(probs, k) -> list[int]:
    """Top-k ids from one stable sort of the whole vector."""
    return np.argsort(-np.asarray(probs, dtype=float), kind="stable")[:k].tolist()


def o_nucleus_full_sort(probs, p) -> list[int]:
    """The nucleus from one stable sort of the whole vector and one cumsum."""
    v = np.asarray(probs, dtype=float)
    order = np.argsort(-v, kind="stable")
    reached = np.cumsum(v[order]) >= p
    end = int(np.argmax(reached)) + 1 if reached.any() else len(order)
    return order[:end].tolist()


def o_argmax_low_id(pairs) -> int:
    """pairs: iterable of (token, score) in ascending token order; strict > keeps low ids."""
    best_tok, best_score = None, None
    for tok, score in pairs:
        if best_score is None or score > best_score:
            best_tok, best_score = tok, score
    return best_tok


def o_distinct_n(responses, n) -> float:
    grams = []
    for resp in responses:
        toks = list(resp)
        grams.extend(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))
    return len(set(grams)) / len(grams) if grams else 0.0


def o_enumerate_sequences(forward_probs, base, vocab_size, eou, max_len):
    """All complete sequences: end at EOU or at the length cap, no interior EOU.

    ``forward_probs(prefix) -> probs``. Returns (tokens tuple, total logprob).
    """
    results = []

    def walk(tokens, logp):
        if tokens and (tokens[-1] == eou or len(tokens) == max_len):
            results.append((tuple(tokens), logp))
            return
        probs = forward_probs(base + tokens)
        for t in range(vocab_size):
            pt = float(probs[t])
            lpt = logp + (math.log(pt) if pt > 0.0 else -math.inf)
            walk(tokens + [t], lpt)

    walk([], 0.0)
    return results


def o_beam_search(backend, enc, width, max_new_tokens):
    """Beam search that scores every token of every live beam at each step.

    The exhaustive width x V expansion, ranked by (-total logprob, tokens).
    Returns (tokens, per-token probs, stop reason, winner's session).
    """
    eou = backend.info.eou_token_id
    root = backend.open(enc.tokens)
    live = [((), 0.0, (), root)]
    finished = []
    for _ in range(max_new_tokens):
        candidates = []
        for tokens, logp, probs_path, session in live:
            if tokens:
                session = session.extend(tokens[-1])
            step_probs = session.probs
            for t in range(backend.info.vocab_size):
                pt = float(step_probs[t])
                lpt = logp + (math.log(pt) if pt > 0.0 else -math.inf)
                candidates.append((tokens + (t,), lpt, probs_path + (pt,), session))
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
    tokens, _, probs_path, session = min(pool, key=lambda c: (-c[1], c[0]))
    stop_reason = "eou" if tokens and tokens[-1] == eou else "max_len"
    return list(tokens), list(probs_path), stop_reason, session
