"""Dialogue context serialization with end-of-utterance separators.

The model input for a context u_1..u_N is u_1 [EOU] u_2 [EOU] ... u_N [EOU];
the hidden state at each [EOU] position serves as that utterance's
representation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .core import DialogueContext, TokenId
from .errors import ArgumentError


@dataclass(frozen=True)
class EncodedContext:
    """Flattened context tokens with the positions of the EOU separators."""

    tokens: tuple[TokenId, ...]
    eou_positions: tuple[int, ...]
    n_utterances: int


def encode_context(ctx: DialogueContext, eou: TokenId) -> EncodedContext:
    """Concatenate utterances, appending one EOU after each.

    Raises ArgumentError when an utterance already contains the EOU id (it is
    a separator, never content).
    """
    ctx.validate()
    tokens: list[int] = []
    positions: list[int] = []
    for i, utt in enumerate(ctx.utterances):
        if eou in utt:
            raise ArgumentError(f"utterance {i} contains the EOU id {eou}")
        tokens.extend(int(t) for t in utt)
        tokens.append(int(eou))
        positions.append(len(tokens) - 1)
    return EncodedContext(
        tokens=tuple(tokens),
        eou_positions=tuple(positions),
        n_utterances=len(ctx.utterances),
    )


@dataclass(frozen=True)
class Tokenizer:
    """Deliberately trivial tokenization: pre-tokenized ids or whitespace words.

    Passthrough mode accepts integer token lists only. Whitespace mode splits
    on whitespace and maps unknown words to ``unk_id``.
    """

    mode: str = "passthrough"
    vocab: Optional[Mapping[str, TokenId]] = None
    unk_id: Optional[TokenId] = None

    def __post_init__(self):
        if self.mode not in ("passthrough", "whitespace"):
            raise ArgumentError(f"unknown tokenizer mode {self.mode!r}")
        if self.mode == "whitespace" and (self.vocab is None or self.unk_id is None):
            raise ArgumentError("whitespace mode requires a vocab and an unk_id")

    def encode(self, utterance: Union[Sequence[TokenId], str]) -> list[TokenId]:
        if self.mode == "passthrough":
            if isinstance(utterance, str):
                raise ArgumentError("passthrough tokenizer accepts pre-tokenized integer input only")
            out = []
            for t in utterance:
                if not isinstance(t, int) or isinstance(t, bool) or t < 0:
                    raise ArgumentError(f"passthrough token {t!r} is not a non-negative integer")
                out.append(t)
            return out
        if not isinstance(utterance, str):
            raise ArgumentError("whitespace tokenizer accepts strings only")
        return [self.vocab.get(w, self.unk_id) for w in utterance.split()]

    def decode(self, tokens: Sequence[TokenId]) -> Optional[str]:
        """Whitespace-join the words for ids in the vocab; None in passthrough mode."""
        if self.mode == "passthrough":
            return None
        inverse: dict[int, str] = {}
        for word, tid in self.vocab.items():
            inverse.setdefault(tid, word)
        return " ".join(inverse.get(int(t), f"<{int(t)}>") for t in tokens)
