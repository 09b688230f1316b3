"""Command-line entry point: generate, compare, heatmap over JSONL dialogue files.

Record schema (one JSON object per line): {"id": str, "context_tokens":
[[int, ...], ...]} or, with --vocab, {"id": str, "context": [str, ...]}.
Numbers in outputs carry 6 fractional digits so repeated runs are
byte-identical apart from the elapsed_s field.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .backend import Backend, RemoteBackend, TinyTransformer, load_scripted
from .core import (
    BOOTSTRAP_STRATEGIES,
    PENALTY_FORMS,
    STRATEGIES,
    DialogueContext,
    StrategyConfig,
    TokenId,
    _is_int,
    validate_config,
)
from .encoding import Tokenizer, encode_context
from .errors import ArgumentError, DecodingError, RangeError, VocabError
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


def _mean(xs: Sequence[float]) -> float:
    # A running sum in sequence, on every Python version (the built-in sum
    # compensates from 3.12 on); 0.0 for no values.
    return float(np.cumsum(xs)[-1]) / len(xs) if xs else 0.0


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


def _read(path: str, what: str, parse: Callable[[str], object] = str):
    """``parse`` applied to a user file's UTF-8 text. A file that cannot be
    read, decoded or parsed is an InputError naming it."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, TypeError) as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from exc


def _load_tokenizer(vocab_path: Optional[str]) -> Tokenizer:
    if vocab_path is None:
        return Tokenizer()
    vocab = _read(vocab_path, "vocab file", json.loads)
    if not isinstance(vocab, dict) or not all(_is_int(v) for v in vocab.values()):
        raise InputError(f"vocab file {vocab_path!r} must map words to integer ids")
    unk = vocab.get("<unk>")
    if unk is None:
        raise InputError(f"vocab file {vocab_path!r} must define '<unk>'")
    return Tokenizer(mode="whitespace", vocab=vocab, unk_id=unk)


_IDS = Tokenizer()  # passthrough


def read_records(
    path: str, backend: Backend, tokenizer: Tokenizer
) -> list[tuple[str, DialogueContext]]:
    """Parse and validate the JSONL input; errors name the offending line.

    ``tokenizer`` encodes a 'context' record's text; a 'context_tokens'
    record's ids go through the passthrough rule, with or without a
    vocabulary. A context passes the library's own checks: ``encode_context``
    (non-empty utterances of token ids, no EOU inside one) and the backend's
    vocabulary.
    """
    eou = backend.info.eou_token_id
    records: list[tuple[str, DialogueContext]] = []
    for lineno, line in enumerate(_read(path, "input").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("id"), str):
            raise InputError(f"line {lineno}: record must be an object with a string 'id'")
        if "context_tokens" in doc:
            raw, encode = doc["context_tokens"], _IDS.encode
        elif "context" in doc:
            if tokenizer.mode != "whitespace":
                raise InputError(
                    f"line {lineno}: record uses string 'context' but no --vocab was given"
                )
            raw, encode = doc["context"], tokenizer.encode
        else:
            raise InputError(f"line {lineno}: record has neither 'context_tokens' nor 'context'")
        if not isinstance(raw, list) or not raw:
            raise InputError(f"line {lineno}: context must be a non-empty list of utterances")
        utterances: list[list[TokenId]] = []
        for u, utt in enumerate(raw):
            try:
                utterances.append(encode(utt))
            except ArgumentError as exc:
                raise InputError(f"line {lineno}: utterance {u}: {exc}") from exc
        ctx = DialogueContext(utterances)
        try:
            backend._check_tokens(encode_context(ctx, eou).tokens, "token")
        except (ArgumentError, VocabError) as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        records.append((doc["id"], ctx))
    return records


def _merge_config(args: argparse.Namespace) -> StrategyConfig:
    cfg = _read(args.config, "config", StrategyConfig.from_json) if args.config else StrategyConfig()
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(StrategyConfig)}
    return cfg.replace(**{k: v for k, v in overrides.items() if v is not None})


def _setup(args: argparse.Namespace, runs: Sequence[dict] = ({},)):
    """What a command needs before its first decode: the backend, the
    tokenizer, one checked config per entry of ``runs`` (field overrides of
    the merged config), and the checked records."""
    backend = build_backend(args.backend)
    tokenizer = _load_tokenizer(args.vocab)
    cfg = _merge_config(args)
    cfgs = [validate_config(cfg.replace(**run), backend.info.vocab_size) for run in runs]
    return backend, tokenizer, cfgs, read_records(args.input, backend, tokenizer)


def _reply_session(result):
    """The decoder's session over context and reply: one ``hidden_all`` row
    per token, without a second encoder pass where the backend caches."""
    return result.session.extend(result.tokens[-1])


def _trace_dict(record) -> dict:
    return {
        "token": record.token,
        "prob": _r6(record.prob),
        "p_value": _r6(record.p_value),
        "i_value": _r6(record.i_value),
        "score": _r6(record.score),
    }


def cmd_generate(args: argparse.Namespace) -> int:
    backend, tokenizer, (cfg,), records = _setup(args)
    eou = backend.info.eou_token_id
    with open(args.output, "w") as out:
        for rec_id, ctx in records:
            try:
                result = generate(backend, ctx, cfg)
            except (DecodingError, TimeoutError) as exc:
                raise BackendFailure(f"record {rec_id!r}: {exc}") from exc
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
            out.write(json.dumps(row, separators=(",", ":")) + "\n")
            out.flush()
    return EXIT_OK


def _reply_values(backend, result) -> tuple:
    """What a compare row needs of one reply: its tokens without EOU, its
    decode time, and its two diagnostic cosines (None for an empty reply)."""
    tokens = np.array(result.tokens)
    keep = tokens != backend.info.eou_token_id
    reply = _reply_session(result).hidden_all[-len(tokens):]
    diag = diagnostics(result, reply[keep], result.utterance_reps) if keep.any() else None
    return tokens[keep].tolist(), result.elapsed, diag


def _compare_row(replies) -> dict:
    """Metrics for one strategy at one seed from its replies, in record order."""
    responses = [tokens for tokens, _, _ in replies]
    diags = [diag for _, _, diag in replies if diag is not None]
    return {
        "distinct2": distinct_n(responses, 2),
        "distinct4": distinct_n(responses, 4),
        "mean_intra_response_cosine": _mean([d.mean_intra_response_cosine for d in diags]),
        "mean_context_cosine": _mean([d.mean_context_cosine for d in diags]),
        "mean_elapsed_s": _mean([elapsed for _, elapsed, _ in replies]),
    }


def cmd_compare(args: argparse.Namespace) -> int:
    """Decode record by record, so that a record's (strategy, seed) replies
    share the model's kept pass of its context and the probes run over it,
    then average each strategy's metrics over the seeds. A reply's elapsed
    time is its own decode's, lower where an earlier reply ran its probes."""
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise InputError(f"bad --seeds value {args.seeds!r}") from exc
    if not strategies or not seeds:
        raise InputError("compare needs at least one strategy and one seed")
    backend, _, cfgs, records = _setup(args, [{"strategy": s, "seed": n} for s in strategies for n in seeds])
    with open(args.output, "w") as out:  # an unwritable path fails before the first decode
        replies = [[] for _ in cfgs]  # per config, in record order
        for rec_id, ctx in records:
            for cfg, values in zip(cfgs, replies):
                try:
                    values.append(_reply_values(backend, generate(backend, ctx, cfg)))
                except (DecodingError, TimeoutError) as exc:
                    where = f"record {rec_id!r}, strategy {cfg.strategy!r}, seed {cfg.seed}"
                    raise BackendFailure(f"{where}: {exc}") from exc
        runs = iter(replies)  # strategy-major, as built
        rows = []
        for strategy in strategies:
            per_seed = [_compare_row(next(runs)) for _ in seeds]
            row = {"strategy": strategy}
            for col in per_seed[0]:
                row[col] = _r6(_mean([r[col] for r in per_seed]))
            rows.append(row)
        out.write(json.dumps({"seeds": seeds, "rows": rows}, separators=(",", ":")) + "\n")
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
    backend, tokenizer, (cfg,), records = _setup(args)
    match = [ctx for rec_id, ctx in records if rec_id == args.record_id]
    if not match:
        print(f"record id {args.record_id!r} not found in {args.input}", file=sys.stderr)
        return EXIT_MISSING_RECORD
    session = _reply_session(generate(backend, match[0], cfg))
    tokens = np.array(session.tokens)
    keep = tokens != backend.info.eou_token_id
    whitespace = tokenizer.mode == "whitespace"
    labels = [tokenizer.decode([t]) if whitespace else str(t) for t in tokens[keep].tolist()]
    matrix = similarity_heatmap(session.hidden_all[keep])
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
    common.add_argument("--first-n", dest="bootstrap_n", type=int)
    common.add_argument("--first-strategy", dest="bootstrap_strategy", choices=BOOTSTRAP_STRATEGIES)
    common.add_argument("--first-k", dest="bootstrap_k", type=int)
    common.add_argument("--first-p", dest="bootstrap_p", type=float)
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
    """Run one command. The one place where an error becomes an exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.backend:
        print(
            f"no backend: pass --backend or set ${BACKEND_ENV_VAR}", file=sys.stderr
        )
        return EXIT_INPUT
    try:
        return args.func(args)
    except RangeError as exc:  # a DecodingError, so caught before it
        message, code = f"input error: bad config: {exc}", EXIT_INPUT
    except InputError as exc:
        message, code = f"input error: {exc}", EXIT_INPUT
    except (BackendFailure, DecodingError, TimeoutError) as exc:  # TimeoutError is an OSError
        message, code = f"backend error: {exc}", EXIT_BACKEND
    except OSError as exc:  # an output file that cannot be written
        message, code = f"file error: {exc}", EXIT_INPUT
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
