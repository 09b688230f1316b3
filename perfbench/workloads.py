"""Benchmark workloads and the seeded inputs each one decodes.

Inputs depend only on the workload and the ``--seed`` argument: the same seed
gives the same contexts and sampling seeds on every machine, because they come
from Python's ``random.Random``, whose stream is fixed across versions.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``model`` is the TinyTransformer shape (seed, V, d, L, H); ``records`` is
    the number of distinct dialogue contexts decoded per pass; ``kind`` is
    "decode" (the benchmark calls ``generate`` itself) or "compare" (it runs
    the CLI ``compare`` command in-process). A traced run decodes whole
    passes over only the first ``trace_records`` records, so that one pass
    is short next to the run's length.
    """

    name: str
    kind: str
    model: tuple[int, int, int, int, int]
    records: int
    contexts: Callable[[random.Random, int, int], list[list[list[int]]]]
    max_new_tokens: int
    trace_records: int
    remote: bool = False

    @property
    def spec(self) -> str:
        return "tiny:" + ",".join(str(x) for x in self.model)

    @property
    def eou(self) -> int:
        # TinyTransformer's convention: the last id ends an utterance.
        return self.model[1] - 1


def short_contexts(rng: random.Random, vocab: int, n: int) -> list[list[list[int]]]:
    """1-3 utterances of 1-5 tokens each, ids uniform over the non-EOU vocabulary.

    The shapes are fixed: record j has 1 + j % 3 utterances, whose lengths
    step through 1-5, so every seed decodes contexts of the same lengths (and
    a workload with fewer records gets a prefix of them). The token ids vary
    with the seed.
    """
    return [
        [[rng.randrange(vocab - 1) for _ in range(1 + (2 * j + 3 * u) % 5)] for u in range(1 + j % 3)]
        for j in range(n)
    ]


def long_contexts(rng: random.Random, vocab: int, n: int) -> list[list[list[int]]]:
    """150 context tokens each, split into 7-8 utterances of 8-24 tokens.

    Every reply then does the same work, so the few replies a run holds
    measure one cost many times instead of one sample each of many costs.
    The split into utterances and the token ids vary with the seed.
    """
    total = 150
    out = []
    for _ in range(n):
        u = rng.choice([u for u in range(4, 9) if 8 * u <= total <= 24 * u])
        sizes = [8] * u
        extra = total - 8 * u
        while extra:
            i = rng.randrange(u)
            if sizes[i] < 24:
                sizes[i] += 1
                extra -= 1
        out.append([[rng.randrange(vocab - 1) for _ in range(s)] for s in sizes])
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ips-short", "decode", (42, 64, 16, 2, 2), 48, short_contexts, 32, 12),
        Workload("ips-long", "decode", (42, 2048, 32, 4, 4), 10, long_contexts, 16, 2),
        Workload("compare-all", "compare", (42, 2048, 32, 4, 4), 6, short_contexts, 16, 2),
        # The same records as ips-short, for the same seed.
        Workload("remote-ips", "decode", (42, 64, 16, 2, 2), 48, short_contexts, 32, 12, remote=True),
    )
}


@dataclass(frozen=True)
class Inputs:
    contexts: list[list[list[int]]]
    sample_seeds: list[int]  # one sampling seed per record ("decode") or per compare run


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Contexts and sampling seeds for one run, checked against the model's vocabulary."""
    vocab = w.model[1]
    contexts = w.contexts(random.Random(seed), vocab, w.records)
    # A separate stream, so that a workload with fewer records of the same
    # kind gets a prefix of another's records and seeds.
    seed_rng = random.Random(f"sampling:{seed}")
    sample_seeds = [seed_rng.randrange(2**63) for _ in range(2 if w.kind == "compare" else w.records)]
    for r, ctx in enumerate(contexts):
        for utt in ctx:
            if not utt:
                raise ValueError(f"record {r}: empty utterance")
            for t in utt:
                if not 0 <= t < vocab:
                    raise ValueError(f"record {r}: id {t} outside vocabulary of size {vocab}")
                if t == w.eou:
                    raise ValueError(f"record {r}: utterance contains the EOU id {t}")
    return Inputs(contexts, sample_seeds)
