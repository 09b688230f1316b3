"""The numeric heart of the decoder: cosine-based proximity and isotropy terms.

All functions are pure. Each takes one candidate vector, giving a float (or
one representation), or a matrix of candidate rows, giving one per row.
Candidate ties anywhere in the package are broken by ascending token id, so
scores are compared as exact reals.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import StrategyConfig
from .errors import ArgumentError, DegenerateVectorError, DimensionError

DEGENERATE_NORM = 1e-12


def _as_array(x, ndims=(1, 2)) -> np.ndarray:
    """``x`` as a float vector or matrix of row vectors; DimensionError otherwise."""
    try:
        v = np.asarray(x, dtype=float)
    except ValueError as exc:  # ragged rows
        raise DimensionError(f"not a vector or a matrix of equal-length rows: {exc}") from exc
    if v.ndim not in ndims:
        raise DimensionError(f"expected {' or '.join(map(str, ndims))} dimensions, got shape {v.shape}")
    return v


def _norms(v: np.ndarray):
    """The norm of a vector, or of each row of a matrix; DegenerateVectorError
    when one is at most DEGENERATE_NORM or not finite. A norm that overflows
    raises it also where warnings are errors (``python -W error``); under the
    default filters numpy's overflow RuntimeWarning prints first."""
    # The square root of the sum of squares over the last axis: what
    # np.linalg.norm(v, axis=-1) computes for real input, without its Python
    # wrapper. A NaN norm fails both comparisons. A try costs nothing when
    # nothing is raised, where np.errstate costs about 0.7 µs a call.
    try:
        norms = np.sqrt(np.add.reduce(v * v, axis=-1))
    except RuntimeWarning as exc:  # the overflow warning, raised as an error
        raise DegenerateVectorError(f"norm not finite: {exc}") from exc
    if not ((norms > DEGENERATE_NORM) & (norms < np.inf)).all():
        raise DegenerateVectorError(f"norm near zero or not finite: {np.min(norms)}")
    return norms


def cosine(a, b):
    """dot(a,b) / (|a||b|), clamped into [-1, 1] to absorb rounding.

    Each side is one vector or a matrix of row vectors: two vectors give a
    float, a vector and a matrix one value per row, and two matrices the
    (len(a) x len(b)) block of every pair. A row whose norm is at most
    DEGENERATE_NORM or not finite (a NaN or infinite component, or an
    overflowing norm) raises DegenerateVectorError.
    """
    va = _as_array(a)
    vb = _as_array(b)
    if va.shape[-1] != vb.shape[-1]:
        raise DimensionError(f"vector shapes differ: {va.shape} vs {vb.shape}")
    na = _norms(va)
    nb = _norms(vb)
    sims = (va @ vb.T) / np.multiply.outer(na, nb)
    # fmax/fmin map NaN to -1.0, as the built-in max/min always did.
    return _unwrap(np.fmin(1.0, np.fmax(-1.0, sims)))


def _unwrap(values):
    """A float for one vector's result; the array of per-row results otherwise.
    ``values`` is a numpy array or scalar, so its own ``ndim`` is read."""
    return float(values) if values.ndim == 0 else values


def _mean(values: np.ndarray):
    """The mean over the last axis, as np.mean computes it: a sum, then a
    division by the count."""
    return _unwrap(np.add.reduce(values, axis=-1) / values.shape[-1])


def response_representation(generated_hiddens: Sequence, candidate=None) -> np.ndarray:
    """Mean of the generated-token hidden states, optionally with a candidate folded in.

    The divisor is the count of vectors averaged, so the result is the
    undergoing response representation as it would stand after accepting the
    candidate. A matrix of candidate rows gives one representation per row.
    """
    if candidate is None:
        if len(generated_hiddens) == 0:
            raise ArgumentError("need at least one hidden vector or a candidate")
        return np.mean(_as_array(generated_hiddens, (2,)), axis=0)
    cands = _as_array(candidate)
    if len(generated_hiddens) == 0:
        return cands.copy()
    rows = _as_array(generated_hiddens, (2,))
    if rows.shape[1] != cands.shape[-1]:
        raise DimensionError("hidden vectors have mixed lengths")
    # The row sum runs in order and the candidate comes last, as in a mean
    # over the stacked vectors.
    return (np.add.reduce(rows, axis=0) + cands) / (len(rows) + 1)


def proximal_value(candidate_hidden, generated_hiddens: Sequence):
    """Mean cosine of the candidate to each already-generated token's hidden state.

    Defined as 0.0 for an empty history (the very first step when no
    bootstrap ran).
    """
    if len(generated_hiddens) == 0:
        cands = _as_array(candidate_hidden)
        return 0.0 if cands.ndim == 1 else np.zeros(len(cands))
    return _mean(cosine(candidate_hidden, _as_array(generated_hiddens, (2,))))


def isotropic_value(response_rep, utterance_reps: Sequence):
    """Mean cosine of the response representation to each utterance representation."""
    if len(utterance_reps) == 0:
        raise ArgumentError("utterance_reps must be non-empty")
    return _mean(cosine(response_rep, _as_array(utterance_reps, (2,))))


def ips_score(prob, p_value, i_value, cfg: StrategyConfig):
    """alpha * prob + (1 - alpha) * penalty, for one candidate or elementwise.

    penalty_form "eq5" uses (p_value - i_value); "beta" uses
    (1 - beta) * p_value - beta * i_value, which at beta = 0.5 halves the
    penalty scale relative to eq5.
    """
    if cfg.penalty_form == "beta":
        penalty = (1.0 - cfg.beta) * p_value - cfg.beta * i_value
    else:
        penalty = p_value - i_value
    return cfg.alpha * prob + (1.0 - cfg.alpha) * penalty


def degeneration_penalty(candidate_hidden, prefix_hiddens: Sequence):
    """Maximum cosine of the candidate to any prefix token's hidden state."""
    if len(prefix_hiddens) == 0:
        raise ArgumentError("prefix_hiddens must be non-empty")
    return _unwrap(np.maximum.reduce(cosine(candidate_hidden, _as_array(prefix_hiddens, (2,))), axis=-1))
