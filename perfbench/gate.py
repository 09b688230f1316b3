"""Correctness gate: recompute sampled search steps from scratch.

A sampled IPS step (after the bootstrap) or contrastive step is rebuilt from
the public ``Backend.forward`` and the ``ipsearch.scoring`` functions alone:
one forward per prefix, no candidate batching and nothing carried over from
the decode loop. The token the decoder chose must be in the recomputed top-m
and must have the highest score, ties going to the lower id.
"""
from __future__ import annotations

import random

from ipsearch import scoring


def encode(utterances, eou):
    """Concatenate the utterances, each closed by EOU; return tokens and EOU positions."""
    tokens, eou_positions = [], []
    for utt in utterances:
        tokens.extend(utt)
        eou_positions.append(len(tokens))
        tokens.append(eou)
    return tokens, eou_positions


def top_m(probs, m):
    return sorted(range(len(probs)), key=lambda i: (-float(probs[i]), i))[:m]


def check_steps(backend, utterances, tokens, cfg, steps) -> list[str]:
    """Recompute ``steps`` of one reply; return one message per failed step."""
    eou = backend.info.eou_token_id
    ctx_tokens, eou_positions = encode(utterances, eou)
    ctx_hidden = backend.forward(ctx_tokens, want_all_hidden=True).hidden_all
    utterance_reps = [ctx_hidden[p] for p in eou_positions]
    history = [
        backend.forward(ctx_tokens + tokens[: j + 1]).hidden_last for j in range(max(steps))
    ]
    failures = []
    for s in steps:
        prefix = ctx_tokens + tokens[:s]
        probs = backend.forward(prefix).probs
        cands = top_m(probs, cfg.m)
        hist = history[:s]
        scores = {}
        for c in cands:
            h = backend.forward(prefix + [c]).hidden_last
            prob = float(probs[c])
            if cfg.strategy == "ips":
                p_val = scoring.proximal_value(h, hist)
                rep = scoring.response_representation(hist, candidate=h)
                i_val = scoring.isotropic_value(rep, utterance_reps)
                scores[c] = scoring.ips_score(prob, p_val, i_val, cfg)
            else:
                penalty = scoring.degeneration_penalty(h, list(ctx_hidden) + hist)
                scores[c] = (1.0 - cfg.alpha) * prob - cfg.alpha * penalty
        want = min(cands, key=lambda c: (-scores[c], c))
        if tokens[s] != want:
            failures.append(
                f"{cfg.strategy} step {s}: decoder chose {tokens[s]}, recomputed argmax is {want}"
                f" (top-m {sorted(cands)})"
            )
    return failures


def sample_steps(rng: random.Random, cfg, n_tokens: int, k: int) -> list[int]:
    """Up to k distinct step indices that ran the search rule (not the bootstrap)."""
    first = cfg.bootstrap_n if cfg.strategy == "ips" else 0
    eligible = list(range(first, n_tokens))
    return sorted(rng.sample(eligible, min(k, len(eligible))))
