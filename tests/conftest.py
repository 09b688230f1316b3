"""Shared fixtures: the tiny reference model, dialogue contexts, scripted tables."""
from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from ipsearch import Backend, BackendInfo, DialogueContext, ScriptedBackend, Session, StepOutput, TinyTransformer

TINY_ARGS = dict(seed=42, vocab_size=64, hidden_dim=16, layers=2, heads=2)


@pytest.fixture(scope="session")
def tiny_backend():
    return TinyTransformer(**TINY_ARGS)


class CountingBackend(Backend):
    """Delegates to ``inner`` and counts the ``forward`` calls made through it.

    Its sessions compute from scratch as the base ``Session`` does, but
    probe through ``forward_candidates``: the base session's probe on
    ``inner``, one ``inner.forward`` per candidate, so its decodes stay a
    bitwise reference for cached sessions; those forwards are not counted.
    A subclass can log each probe by overriding ``forward_candidates``.
    """

    def __init__(self, inner: Backend):
        self.inner = inner
        self.forward_calls = 0

    @property
    def info(self) -> BackendInfo:
        return self.inner.info

    def forward(self, prefix, want_all_hidden=False):
        self.forward_calls += 1
        return self.inner.forward(prefix, want_all_hidden)

    def forward_candidates(self, prefix, candidates):
        return Session(self.inner, list(prefix)).probe(candidates)

    def open(self, context_tokens):
        return _CountingSession(self, self._check_prefix(context_tokens))


class _CountingSession(Session):
    def probe(self, candidates):
        return self._backend.forward_candidates(self.tokens, candidates)


def count_passes(monkeypatch, model: TinyTransformer) -> Counter:
    """Count ``model``'s runs of rows from here on: ``"causal"`` sequence
    passes and ``"probe"`` batches."""
    passes: Counter = Counter()
    run = model._run

    def counting(cache, ids, causal):
        passes["causal" if causal else "probe"] += 1
        return run(cache, ids, causal)

    monkeypatch.setattr(model, "_run", counting)
    return passes


def make_contexts(count: int, vocab_size: int = 64, eou: int = 63, seed: int = 7):
    """Deterministic varied dialogue contexts with ids below the EOU token."""
    rng = np.random.Generator(np.random.PCG64(seed))
    contexts = []
    for _ in range(count):
        n_utts = int(rng.integers(1, 4))
        utts = [
            [int(t) for t in rng.integers(0, eou, size=int(rng.integers(1, 6)))]
            for _ in range(n_utts)
        ]
        contexts.append(DialogueContext(utts))
    return contexts


@pytest.fixture(scope="session")
def contexts24():
    return make_contexts(24)


def random_scripted(seed: int, vocab_size: int = 4, hidden_dim: int = 3, depth: int = 3):
    """A consistent random table over every prefix reachable in `depth` steps.

    Context is [[1]] with EOU id 2; entries exist for the encoded context
    (with hidden_all) and for every generated suffix of length <= depth whose
    interior tokens are not EOU, so both step distributions and candidate
    hiddens are always resolvable.
    """
    eou = 2
    info = BackendInfo(vocab_size=vocab_size, hidden_dim=hidden_dim, eou_token_id=eou)
    ctx = DialogueContext([[1]])
    base = (1, eou)
    rng = np.random.Generator(np.random.PCG64(seed))

    def probs():
        v = rng.random(vocab_size) + 0.05
        return v / v.sum()

    def hidden():
        while True:
            h = rng.normal(size=hidden_dim)
            if np.linalg.norm(h) > 1e-6:
                return h

    suffixes = [()]
    for _ in range(depth):
        suffixes += [
            s + (t,)
            for s in suffixes
            if len(s) < depth and (not s or s[-1] != eou)
            for t in range(vocab_size)
        ]
        suffixes = list(dict.fromkeys(suffixes))
    table = {}
    for s in suffixes:
        prefix = base + s
        table[prefix] = StepOutput(
            probs=probs(),
            hidden_last=hidden(),
            hidden_all=[hidden() for _ in prefix] if not s else None,
        )
    return ScriptedBackend(info, table), ctx


def directional_scripted():
    """Hand-built table where proximity and confidence pull apart.

    Context [[0]] with EOU id 4 (V=5, d=3). Step 1 forces token 1 (hidden v =
    [1,0,0]). At step 2, candidate A (token 2, hidden parallel to v, so
    proximal 1 and isotropic 0) fights candidate B (token 3, higher
    probability, hidden orthogonal to v and parallel to the utterance
    representation u = [0,1,0]). Step 3 emits EOU with probability 1 on
    either path.
    """
    info = BackendInfo(vocab_size=5, hidden_dim=3, eou_token_id=4)
    ctx = DialogueContext([[0]])
    uniform = np.full(5, 0.2)
    onehot_eou = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    side = [1.0, 1.0, 0.0]
    up = [0.0, 0.0, 1.0]
    table = {
        (0, 4): StepOutput(
            probs=np.array([0.02, 0.9, 0.03, 0.03, 0.02]),
            hidden_last=np.array([0.0, 1.0, 0.0]),
            hidden_all=[np.array([1.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.0])],
        ),
        (0, 4, 1): StepOutput(
            probs=np.array([0.05, 0.0, 0.4, 0.5, 0.05]),
            hidden_last=np.array([1.0, 0.0, 0.0]),
        ),
        (0, 4, 0): StepOutput(probs=uniform, hidden_last=np.array(side)),
        (0, 4, 2): StepOutput(probs=uniform, hidden_last=np.array(side)),
        (0, 4, 3): StepOutput(probs=uniform, hidden_last=np.array(side)),
        (0, 4, 1, 2): StepOutput(probs=onehot_eou, hidden_last=np.array([1.0, 0.0, 0.0])),
        (0, 4, 1, 3): StepOutput(probs=onehot_eou, hidden_last=np.array([0.0, 1.0, 0.0])),
        (0, 4, 1, 0): StepOutput(probs=uniform, hidden_last=np.array(side)),
        (0, 4, 1, 4): StepOutput(probs=uniform, hidden_last=np.array(up)),
        (0, 4, 1, 2, 4): StepOutput(probs=uniform, hidden_last=np.array(up)),
        (0, 4, 1, 2, 0): StepOutput(probs=uniform, hidden_last=np.array(up)),
        (0, 4, 1, 2, 1): StepOutput(probs=uniform, hidden_last=np.array(up)),
        (0, 4, 1, 2, 2): StepOutput(probs=uniform, hidden_last=np.array(up)),
        (0, 4, 1, 2, 3): StepOutput(probs=uniform, hidden_last=np.array(up)),
        (0, 4, 1, 3, 4): StepOutput(probs=uniform, hidden_last=np.array(up)),
        (0, 4, 1, 3, 0): StepOutput(probs=uniform, hidden_last=np.array(up)),
        (0, 4, 1, 3, 1): StepOutput(probs=uniform, hidden_last=np.array(up)),
        (0, 4, 1, 3, 2): StepOutput(probs=uniform, hidden_last=np.array(up)),
        (0, 4, 1, 3, 3): StepOutput(probs=uniform, hidden_last=np.array(up)),
    }
    return ScriptedBackend(info, table), ctx
