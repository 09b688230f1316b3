"""One sha256 over the reference model's session outputs, for a change that
must keep every bit of them.

Run it at the parent commit and at the change, on the same BLAS kernel, and
compare the two digests. The digest covers ``forward``, ``open``, ``probe``,
``extend`` by a probed and by an unprobed token (and a probe after each),
``forward_candidates`` and the base ``Session.probe``, at three model shapes.
It differs between BLAS kernels (for example under
``OPENBLAS_CORETYPE=Prescott``), so it is not pinned by a tier-1 test::

    PYTHONPATH=src python tests/bit_grid.py
"""
from __future__ import annotations

import hashlib

import numpy as np

from ipsearch import Session, TinyTransformer

# (seed, vocab_size, hidden_dim, layers, heads), prefix length.
SHAPES = [((42, 64, 16, 2, 2), 9), ((42, 2048, 32, 4, 4), 150), ((7, 512, 128, 4, 4), 300)]
CANDIDATES = 6


def grid_digest() -> str:
    digest = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            digest.update(repr(a.shape).encode())
            digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())

    for shape, n in SHAPES:
        model = TinyTransformer(*shape)
        rng = np.random.Generator(np.random.PCG64(n))
        # Ids below vocab_size - 2, which is then an id no candidate is, and
        # below the end-of-utterance id; the candidates are distinct.
        prefix = [int(t) for t in rng.integers(0, shape[1] - 2, size=n)]
        candidates = [int(t) for t in rng.choice(shape[1] - 2, size=CANDIDATES, replace=False)]
        unprobed = shape[1] - 2
        out = model.forward(prefix, want_all_hidden=True)
        add(out.probs, out.hidden_last, out.hidden_all)
        session = model.open(prefix)
        add(session.probs, session.hidden_all, session.probe(candidates))
        for token in (candidates[0], unprobed):
            longer = session.extend(token)
            add(longer.probs, longer.hidden_all, longer.probe(candidates))
        add(model.forward_candidates(prefix, candidates))
        add(Session(model, prefix).probe(candidates))
    return digest.hexdigest()


if __name__ == "__main__":
    print(grid_digest())
