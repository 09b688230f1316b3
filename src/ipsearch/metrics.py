"""Corpus diversity metrics, per-response cosine diagnostics, and heatmap export."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import GenerationResult, TokenId, _is_int, _is_integer
from .errors import ArgumentError
from .scoring import _as_array, cosine, isotropic_value, response_representation


def distinct_n(responses: Sequence[Sequence[TokenId]], n: int) -> float:
    """Unique n-grams over total n-grams, pooled across all responses.

    Responses shorter than n contribute nothing; an empty pool yields 0. A
    token that is not an int or a numpy integer (a bool, a float) raises
    ArgumentError: it would count as the int it equals.
    """
    if not _is_int(n) or n < 1:
        raise ArgumentError(f"n must be an integer >= 1, got {n!r}")
    total = 0
    unique: set[tuple[int, ...]] = set()
    for r, resp in enumerate(responses):
        toks = list(resp)
        # A plain int skips the call.
        if any(type(t) is not int and not _is_integer(t) for t in toks):
            raise ArgumentError(f"response {r} contains a non-integer token")
        for i in range(len(toks) - n + 1):
            unique.add(tuple(toks[i : i + n]))
            total += 1
    return len(unique) / total if total else 0.0


def similarity_heatmap(hiddens: Sequence) -> np.ndarray:
    """L x L matrix of pairwise cosines; symmetric with unit diagonal."""
    if len(hiddens) == 0:
        raise ArgumentError("hiddens must be non-empty")
    vectors = _as_array(hiddens, (2,))
    matrix = cosine(vectors, vectors)
    # Mirror the upper triangle so the matrix is exactly symmetric.
    i, j = np.triu_indices(len(vectors), 1)
    matrix[j, i] = matrix[i, j]
    return matrix


@dataclass(frozen=True)
class Diagnostics:
    """How concentrated the response is and how far it sits from the context.

    ``mean_intra_response_cosine`` averages the C(L,2) unordered pairs of
    generated-token hiddens (1.0 by convention when L = 1);
    ``mean_context_cosine`` averages the cosine of the final response
    representation against each utterance representation.
    """

    mean_intra_response_cosine: float
    mean_context_cosine: float


def diagnostics(
    result: GenerationResult, hiddens: Sequence, utterance_reps: Sequence
) -> Diagnostics:
    if not result.tokens:
        raise ArgumentError("result has no tokens")
    n = len(hiddens)
    intra = 1.0 if n == 1 else float(np.mean(similarity_heatmap(hiddens)[np.triu_indices(n, 1)]))
    context = isotropic_value(response_representation(hiddens), utterance_reps)
    return Diagnostics(mean_intra_response_cosine=intra, mean_context_cosine=context)


def write_heatmap_csv(path: str | Path, labels: Sequence[str], matrix: np.ndarray) -> None:
    """First row: token labels; each following row: label then L values, 6 decimals."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != len(labels):
        raise ArgumentError(f"matrix shape {m.shape} does not match {len(labels)} labels")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(labels))
        for label, row in zip(labels, m):
            writer.writerow([label] + [f"{x:.6f}" for x in row])


def read_heatmap_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Inverse of write_heatmap_csv; returns (labels, matrix). A file that
    is not a square body of finite numbers under its header raises
    ArgumentError."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ArgumentError("heatmap file is empty")
    labels = rows[0]
    body = []
    for number, row in enumerate(rows[1:], 2):
        if len(row) != len(labels) + 1:
            raise ArgumentError(f"heatmap row {number} has {len(row)} fields, expected {len(labels) + 1}")
        try:
            body.append([float(x) for x in row[1:]])
        except ValueError as exc:
            raise ArgumentError(f"heatmap row {number}: {exc}") from exc
        if not np.isfinite(body[-1]).all():
            raise ArgumentError(f"heatmap row {number} holds a non-finite value")
    matrix = np.array(body)
    if matrix.shape != (len(labels), len(labels)):
        raise ArgumentError(f"heatmap body shape {matrix.shape} does not match header")
    return labels, matrix
