"""Command-line entry point: generate, compare, heatmap over JSONL dialogue files.

Record schema (one JSON object per line): {"id": str, "context_tokens":
[[int, ...], ...]} or, with --vocab, {"id": str, "context": [str, ...]}.
Numbers in outputs carry 6 fractional digits so repeated runs are
byte-identical apart from the elapsed_s field.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .backend import Backend, RemoteBackend, TinyTransformer, load_scripted
from .core import (
    BOOTSTRAP_STRATEGIES,
    PENALTY_FORMS,
    STRATEGIES,
    DialogueContext,
    StrategyConfig,
    TokenId,
    validate_config,
)
from .encoding import Tokenizer, encode_context
from .errors import ArgumentError, DecodingError, RangeError
from .metrics import diagnostics, distinct_n, similarity_heatmap, write_heatmap_csv
from .strategies import generate

BACKEND_ENV_VAR = "IPS_BACKEND"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BACKEND = 3
EXIT_MISSING_RECORD = 4


class InputError(Exception):
    """Malformed input file or unusable configuration (exit code 2)."""


class BackendFailure(Exception):
    """Backend could not be built or failed during generation (exit code 3)."""


def _r6(x) -> Optional[float]:
    return None if x is None else round(float(x), 6)


def build_backend(spec: str) -> Backend:
    """Parse a backend spec: scripted:<path> | tiny:<seed>,<V>,<d>,<L>,<H> | remote:<url>."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise InputError(f"backend spec {spec!r} has no ':'")
    try:
        if kind == "scripted":
            return load_scripted(rest)
        if kind == "tiny":
            parts = [int(x) for x in rest.split(",")]
            if len(parts) != 5:
                raise InputError(f"tiny backend spec needs seed,V,d,L,H; got {rest!r}")
            seed, v, d, layers, heads = parts
            return TinyTransformer(seed, v, d, layers, heads)
        if kind == "remote":
            return RemoteBackend(rest)
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(f"bad backend spec {spec!r}: {exc}") from exc
    except (DecodingError, TimeoutError, OSError) as exc:
        raise BackendFailure(f"backend {spec!r} unavailable: {exc}") from exc
    raise InputError(f"unknown backend kind {kind!r} (expected scripted|tiny|remote)")


def _load_tokenizer(vocab_path: Optional[str]) -> Tokenizer:
    if vocab_path is None:
        return Tokenizer()
    try:
        vocab = json.loads(Path(vocab_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read vocab file {vocab_path!r}: {exc}") from exc
    if not isinstance(vocab, dict) or not all(isinstance(v, int) for v in vocab.values()):
        raise InputError(f"vocab file {vocab_path!r} must map words to integer ids")
    unk = vocab.get("<unk>")
    if unk is None:
        raise InputError(f"vocab file {vocab_path!r} must define '<unk>'")
    return Tokenizer(mode="whitespace", vocab=vocab, unk_id=unk)


def read_records(
    path: str, backend: Backend, tokenizer: Tokenizer
) -> list[tuple[str, DialogueContext]]:
    """Parse and validate the JSONL input; errors name the offending line."""
    info = backend.info
    records: list[tuple[str, DialogueContext]] = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read input {path!r}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(doc, dict) or "id" not in doc:
            raise InputError(f"line {lineno}: record must be an object with an 'id'")
        if "context_tokens" in doc:
            raw = doc["context_tokens"]
        elif "context" in doc:
            if tokenizer.mode != "whitespace":
                raise InputError(
                    f"line {lineno}: record uses string 'context' but no --vocab was given"
                )
            raw = doc["context"]
        else:
            raise InputError(f"line {lineno}: record has neither 'context_tokens' nor 'context'")
        if not isinstance(raw, list) or not raw:
            raise InputError(f"line {lineno}: context must be a non-empty list of utterances")
        utterances: list[list[TokenId]] = []
        for u, utt in enumerate(raw):
            try:
                tokens = tokenizer.encode(utt)
            except ArgumentError as exc:
                raise InputError(f"line {lineno}: utterance {u}: {exc}") from exc
            if not tokens:
                raise InputError(f"line {lineno}: utterance {u} is empty")
            for t in tokens:
                if not 0 <= t < info.vocab_size:
                    raise InputError(
                        f"line {lineno}: token id {t} outside vocabulary of size {info.vocab_size}"
                    )
                if t == info.eou_token_id:
                    raise InputError(
                        f"line {lineno}: utterance {u} contains the EOU id {t}"
                    )
            utterances.append(tokens)
        records.append((str(doc["id"]), DialogueContext(utterances)))
    return records


def _merge_config(args: argparse.Namespace) -> StrategyConfig:
    if getattr(args, "config", None):
        try:
            cfg = StrategyConfig.from_json(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError, ArgumentError, TypeError) as exc:
            raise InputError(f"cannot load config {args.config!r}: {exc}") from exc
    else:
        cfg = StrategyConfig()
    overrides = {
        "strategy": getattr(args, "strategy", None),
        "alpha": getattr(args, "alpha", None),
        "beta": getattr(args, "beta", None),
        "penalty_form": getattr(args, "penalty_form", None),
        "m": getattr(args, "m", None),
        "bootstrap_n": getattr(args, "first_n", None),
        "bootstrap_strategy": getattr(args, "first_strategy", None),
        "bootstrap_k": getattr(args, "first_k", None),
        "bootstrap_p": getattr(args, "first_p", None),
        "beam_width": getattr(args, "beam_width", None),
        "max_new_tokens": getattr(args, "max_new_tokens", None),
        "seed": getattr(args, "seed", None),
    }
    return cfg.replace(**{k: v for k, v in overrides.items() if v is not None})


def _response_hiddens(backend, enc, tokens):
    """Hidden states of the generated content tokens (EOU excluded)."""
    eou = backend.info.eou_token_id
    full = list(enc.tokens) + list(tokens)
    out = backend.forward(full, want_all_hidden=True)
    return [
        out.hidden_all[len(enc.tokens) + i] for i, t in enumerate(tokens) if t != eou
    ]


def _trace_dict(record) -> dict:
    return {
        "token": record.token,
        "prob": _r6(record.prob),
        "p_value": _r6(record.p_value),
        "i_value": _r6(record.i_value),
        "score": _r6(record.score),
    }


def cmd_generate(args: argparse.Namespace) -> int:
    backend = build_backend(args.backend)
    tokenizer = _load_tokenizer(args.vocab)
    cfg = _merge_config(args)
    try:
        validate_config(cfg, backend.info.vocab_size)
    except RangeError as exc:
        raise InputError(f"bad config: {exc}") from exc
    records = read_records(args.input, backend, tokenizer)
    eou = backend.info.eou_token_id
    lines = []
    try:
        for rec_id, ctx in records:
            result = generate(backend, ctx, cfg)
            row = {
                "id": rec_id,
                "strategy": cfg.strategy,
                "tokens": result.tokens,
            }
            if tokenizer.mode == "whitespace":
                row["text"] = tokenizer.decode([t for t in result.tokens if t != eou])
            row["stop_reason"] = result.stop_reason
            row["elapsed_s"] = _r6(result.elapsed)
            row["trace"] = [_trace_dict(r) for r in result.per_step]
            lines.append(json.dumps(row, separators=(",", ":")))
    except (DecodingError, TimeoutError) as exc:
        raise BackendFailure(str(exc)) from exc
    Path(args.output).write_text("".join(line + "\n" for line in lines))
    return EXIT_OK


def _compare_row(backend, records, cfg) -> dict:
    """Metrics for one strategy at one seed over the whole input."""
    eou = backend.info.eou_token_id
    responses = []
    intra, context, elapsed = [], [], []
    for _, ctx in records:
        result = generate(backend, ctx, cfg)
        enc = encode_context(ctx, eou)
        content = [t for t in result.tokens if t != eou]
        responses.append(content)
        elapsed.append(result.elapsed)
        hiddens = _response_hiddens(backend, enc, result.tokens)
        if hiddens:
            diag = diagnostics(result, hiddens, result.utterance_reps)
            intra.append(diag.mean_intra_response_cosine)
            context.append(diag.mean_context_cosine)
    return {
        "distinct2": distinct_n(responses, 2),
        "distinct4": distinct_n(responses, 4),
        "mean_intra_response_cosine": sum(intra) / len(intra) if intra else 0.0,
        "mean_context_cosine": sum(context) / len(context) if context else 0.0,
        "mean_elapsed_s": sum(elapsed) / len(elapsed) if elapsed else 0.0,
    }


_COMPARE_COLUMNS = (
    "distinct2",
    "distinct4",
    "mean_intra_response_cosine",
    "mean_context_cosine",
    "mean_elapsed_s",
)


def cmd_compare(args: argparse.Namespace) -> int:
    backend = build_backend(args.backend)
    tokenizer = _load_tokenizer(args.vocab)
    cfg = _merge_config(args)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise InputError(f"bad --seeds value {args.seeds!r}") from exc
    if not strategies or not seeds:
        raise InputError("compare needs at least one strategy and one seed")
    records = read_records(args.input, backend, tokenizer)
    rows = []
    try:
        for strategy in strategies:
            per_seed = []
            for seed in seeds:
                run_cfg = cfg.replace(strategy=strategy, seed=seed)
                validate_config(run_cfg, backend.info.vocab_size)
                per_seed.append(_compare_row(backend, records, run_cfg))
            row = {"strategy": strategy}
            for col in _COMPARE_COLUMNS:
                row[col] = _r6(sum(r[col] for r in per_seed) / len(per_seed))
            rows.append(row)
    except RangeError as exc:
        raise InputError(f"bad config: {exc}") from exc
    except (DecodingError, TimeoutError) as exc:
        raise BackendFailure(str(exc)) from exc

    table = {"seeds": seeds, "rows": rows}
    Path(args.output).write_text(json.dumps(table, separators=(",", ":")) + "\n")
    header = f"{'strategy':<12} {'dist2':>9} {'dist4':>9} {'intra_cos':>10} {'ctx_cos':>9} {'elapsed_s':>10}"
    print(header)
    for row in rows:
        print(
            f"{row['strategy']:<12} {row['distinct2']:>9.6f} {row['distinct4']:>9.6f} "
            f"{row['mean_intra_response_cosine']:>10.6f} {row['mean_context_cosine']:>9.6f} "
            f"{row['mean_elapsed_s']:>10.6f}"
        )
    return EXIT_OK


def cmd_heatmap(args: argparse.Namespace) -> int:
    backend = build_backend(args.backend)
    tokenizer = _load_tokenizer(args.vocab)
    cfg = _merge_config(args)
    try:
        validate_config(cfg, backend.info.vocab_size)
    except RangeError as exc:
        raise InputError(f"bad config: {exc}") from exc
    records = read_records(args.input, backend, tokenizer)
    match = [ctx for rec_id, ctx in records if rec_id == args.record_id]
    if not match:
        print(f"record id {args.record_id!r} not found in {args.input}", file=sys.stderr)
        return EXIT_MISSING_RECORD
    ctx = match[0]
    eou = backend.info.eou_token_id
    try:
        result = generate(backend, ctx, cfg)
        enc = encode_context(ctx, eou)
        full = list(enc.tokens) + list(result.tokens)
        out = backend.forward(full, want_all_hidden=True)
    except (DecodingError, TimeoutError) as exc:
        raise BackendFailure(str(exc)) from exc
    keep = [i for i, t in enumerate(full) if t != eou]
    hiddens = [out.hidden_all[i] for i in keep]
    if tokenizer.mode == "whitespace":
        labels = [tokenizer.decode([full[i]]) for i in keep]
    else:
        labels = [str(full[i]) for i in keep]
    matrix = similarity_heatmap(hiddens)
    write_heatmap_csv(args.output, labels, matrix)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipsearch",
        description="Dialogue decoding with isotropic-proximal search and baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="JSONL dialogue records")
    common.add_argument("--output", required=True, help="output file path")
    common.add_argument(
        "--backend",
        default=os.environ.get(BACKEND_ENV_VAR),
        help=f"scripted:<path> | tiny:<seed>,<V>,<d>,<L>,<H> | remote:<url> (default ${BACKEND_ENV_VAR})",
    )
    common.add_argument("--config", help="JSON file with StrategyConfig fields")
    common.add_argument("--vocab", help="JSON word->id map enabling whitespace tokenization")
    common.add_argument("--strategy", choices=STRATEGIES)
    common.add_argument("--alpha", type=float)
    common.add_argument("--beta", type=float)
    common.add_argument("--penalty-form", dest="penalty_form", choices=PENALTY_FORMS)
    common.add_argument("--m", type=int)
    common.add_argument("--first-n", dest="first_n", type=int)
    common.add_argument("--first-strategy", dest="first_strategy", choices=BOOTSTRAP_STRATEGIES)
    common.add_argument("--first-k", dest="first_k", type=int)
    common.add_argument("--first-p", dest="first_p", type=float)
    common.add_argument("--beam-width", dest="beam_width", type=int)
    common.add_argument("--max-new-tokens", dest="max_new_tokens", type=int)

    p_gen = sub.add_parser("generate", parents=[common], help="decode every record")
    p_gen.add_argument("--seed", type=int)
    p_gen.set_defaults(func=cmd_generate)

    p_cmp = sub.add_parser("compare", parents=[common], help="metric table across strategies")
    p_cmp.add_argument("--strategies", required=True, help="comma-separated strategy names")
    p_cmp.add_argument("--seeds", required=True, help="comma-separated seeds")
    p_cmp.set_defaults(func=cmd_compare)

    p_hm = sub.add_parser("heatmap", parents=[common], help="similarity matrix CSV for one record")
    p_hm.add_argument("--record-id", dest="record_id", required=True)
    p_hm.add_argument("--seed", type=int)
    p_hm.set_defaults(func=cmd_heatmap)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.backend:
        print(
            f"no backend: pass --backend or set ${BACKEND_ENV_VAR}", file=sys.stderr
        )
        return EXIT_INPUT
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BackendFailure as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    raise SystemExit(main())
