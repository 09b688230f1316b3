"""Isotropic-proximal search decoding for dialogue response generation.

A model-agnostic decoding engine: the search selects, from the model's top-m
candidates, the token that balances model confidence against a proximal
(stay close to the tokens generated so far) minus isotropic (stay
discriminative against the context utterances) penalty. Greedy, beam, top-k,
nucleus, and contrastive baselines share the same backend interface, plus
diversity metrics, diagnostics, and a CLI.
"""

from .backend import (
    Backend,
    BackendInfo,
    RemoteBackend,
    ScriptedBackend,
    StepOutput,
    TinyTransformer,
    load_scripted,
)
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
from .encoding import EncodedContext, Tokenizer, encode_context
from .errors import (
    ArgumentError,
    DecodingError,
    DegenerateVectorError,
    DimensionError,
    MissingEntryError,
    ProtocolError,
    RangeError,
    ValidationError,
    VocabError,
)
from .metrics import (
    Diagnostics,
    diagnostics,
    distinct_n,
    read_heatmap_csv,
    similarity_heatmap,
    write_heatmap_csv,
)
from .scoring import (
    cosine,
    degeneration_penalty,
    ips_score,
    isotropic_value,
    proximal_value,
    response_representation,
)
from .strategies import (
    Rng,
    beam_search,
    generate,
    greedy_step,
    nucleus_set,
    nucleus_step,
    topk_set,
    topk_step,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "Backend",
    "BackendInfo",
    "CandidateScore",
    "DecodingError",
    "DegenerateVectorError",
    "DialogueContext",
    "Diagnostics",
    "DimensionError",
    "EncodedContext",
    "GenerationResult",
    "GenerationState",
    "MissingEntryError",
    "ProtocolError",
    "RangeError",
    "RemoteBackend",
    "Rng",
    "ScriptedBackend",
    "StepOutput",
    "StepRecord",
    "StrategyConfig",
    "TinyTransformer",
    "TokenId",
    "Tokenizer",
    "ValidationError",
    "VocabError",
    "beam_search",
    "cosine",
    "degeneration_penalty",
    "diagnostics",
    "distinct_n",
    "encode_context",
    "generate",
    "greedy_step",
    "ips_score",
    "isotropic_value",
    "load_scripted",
    "nucleus_set",
    "nucleus_step",
    "proximal_value",
    "read_heatmap_csv",
    "response_representation",
    "similarity_heatmap",
    "topk_set",
    "topk_step",
    "validate_config",
    "write_heatmap_csv",
]
