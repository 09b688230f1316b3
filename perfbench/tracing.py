"""Spans and counters for the traced run, and the per-layer metrics built from them.

The traced run wraps the calls into ``ipsearch`` from outside the package:
the backend through ``BackendProxy``, and module attributes through
``Tracer.install``. Every wrapped call records a span (name, start, end,
parent span, reply id, tag) in memory; ``write_spans`` writes them out when
the run ends. A layer's self time is its span's duration minus the durations
of its child spans.
"""
from __future__ import annotations

import importlib
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from ipsearch.core import STRATEGIES

# Span name -> (module, attribute). The strategies module imports the scoring
# and selection functions by name, so they are wrapped where the decode loop
# looks them up.
SPAN_TARGETS = {
    "select.topk_set": ("ipsearch.strategies", "topk_set"),
    "select.nucleus_set": ("ipsearch.strategies", "nucleus_set"),
    "scoring.proximal_value": ("ipsearch.strategies", "proximal_value"),
    "scoring.isotropic_value": ("ipsearch.strategies", "isotropic_value"),
    "scoring.response_representation": ("ipsearch.strategies", "response_representation"),
    "scoring.degeneration_penalty": ("ipsearch.strategies", "degeneration_penalty"),
    "metrics.diagnostics": ("ipsearch.cli", "diagnostics"),
    "metrics.distinct_n": ("ipsearch.cli", "distinct_n"),
}
# Counted, not timed: cosine runs thousands of times per reply, and its time
# is already inside the scoring spans that call it.
COUNT_TARGETS = {"scoring.cosine": ("ipsearch.scoring", "cosine")}
# Wrapped by the compare runner itself (see run.py); listed so a missing one is reported.
CLI_TARGETS = {"cli.generate": ("ipsearch.cli", "generate"), "cli.build_backend": ("ipsearch.cli", "build_backend")}

SCORING = [n for n in SPAN_TARGETS if n.startswith("scoring.")]
SELECT = ["select.topk_set", "select.nucleus_set"]

# Per-layer metric -> (unit, wrap targets it needs). Values are 0 where the
# workload does no such work, and None (reported as missing) where a target is gone.
PER_LAYER = {
    "backend.forward.calls_per_token": ("calls/token", []),
    "backend.forward.positions_per_token": ("positions/token", []),
    "backend.forward.ms_per_token": ("ms/token", []),
    "backend.forward_candidates.calls_per_token": ("calls/token", []),
    "backend.forward_candidates.candidates_per_token": ("candidates/token", []),
    "backend.forward_candidates.positions_per_token": ("positions/token", []),
    "backend.forward_candidates.ms_per_token": ("ms/token", []),
    "backend.forwards_per_token": ("forwards/token", []),
    "backend.context.ms_per_reply": ("ms/reply", []),
    "backend.repeat_position_share": ("share", []),
    "backend.gflop_per_token": ("GFLOP/token", []),
    "backend.gflops": ("GFLOP/s", []),
    "backend.share": ("share", []),
    "backend.remote.requests_per_token": ("requests/token", []),
    "backend.remote.request_ms_p50": ("ms", []),
    "backend.remote.request_ms_p90": ("ms", []),
    "backend.remote.server_ms_per_token": ("ms/token", []),
    "backend.remote.client_ms_per_token": ("ms/token", []),
    "backend.remote.response_bytes_per_token": ("bytes/token", []),
    "backend.remote.failed_requests": ("count", []),
    "strategies.select.ms_per_token": ("ms/token", SELECT),
    "strategies.select.calls_per_token": ("calls/token", SELECT),
    "strategies.beam.forwards_per_reply": ("forwards/reply", []),
    "strategies.beam.self_ms_per_reply": ("ms/reply", []),
    "strategies.loop.self_ms_per_token": ("ms/token", SELECT + SCORING),
    "scoring.ms_per_token": ("ms/token", SCORING),
    **{f"{n}.ms_per_token": ("ms/token", [n]) for n in SCORING},
    "scoring.cosine.calls_per_token": ("calls/token", ["scoring.cosine"]),
    "metrics.diagnostics.ms_per_reply": ("ms/reply", ["metrics.diagnostics"]),
    "metrics.distinct_n.ms_per_run": ("ms/run", ["metrics.distinct_n"]),
    "cli.extra_forwards_per_reply": ("forwards/reply", ["cli.generate", "cli.build_backend"]),
    "cli.self_ms_per_reply": ("ms/reply", list(SPAN_TARGETS) + list(CLI_TARGETS)),
    **{f"cli.generate.{s}.ms_per_reply": ("ms/reply", ["cli.generate"]) for s in STRATEGIES},
    "decode.distinct2": ("share", []),
    "decode.empty_reply_share": ("share", []),
    "trace.overhead_share": ("share", []),
    "trace.wrapper_ms_per_token": ("ms/token", []),
}


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self):
        # Each span: (name, start, end, parent index or None, reply id, tag).
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.reply = -1
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def call(self, name, fn, args, kwargs=None, tag=None):
        # The slot is reserved first so that child spans can name it as their
        # parent; it is filled with a tuple, which the garbage collector stops
        # scanning once it holds only numbers and strings.
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except Exception:
            self.counts[name + ".failed"] += 1
            raise
        finally:
            self.spans[sid] = (name, t0, perf_counter(), parent, self.reply, tag)
            self._stack.pop()

    def reply_call(self, generate, backend, ctx, cfg):
        """One ``generate`` call as a reply span tagged [strategy, tokens]."""
        self.reply += 1
        tag = [cfg.strategy, 0]
        result = self.call("generate", generate, (backend, ctx, cfg), tag=tag)
        tag[1] = len(result.tokens)
        return result

    def patch(self, name, module, attr, make):
        mod = importlib.import_module(module)
        orig = getattr(mod, attr, None)
        if orig is None:
            self.missing.add(name)
            return
        setattr(mod, attr, make(orig))
        self._restore.append((mod, attr, orig))

    def install(self):
        for name, (module, attr) in SPAN_TARGETS.items():
            self.patch(name, module, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        for name, (module, attr) in COUNT_TARGETS.items():
            self.patch(name, module, attr, lambda fn, name=name: self._count_wrapper(name, fn))

    def uninstall(self):
        while self._restore:
            mod, attr, orig = self._restore.pop()
            setattr(mod, attr, orig)

    def _span_wrapper(self, name, fn):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapped

    def _count_wrapper(self, name, fn):
        def wrapped(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def wrapper_cost_s(self, n=20000) -> float:
        """Measured cost of one span wrapper around a no-op, in seconds per call."""
        def noop():
            return None

        wrapped = self._span_wrapper("calibration", noop)
        t0 = perf_counter()
        for _ in range(n):
            noop()
        bare = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(n):
            wrapped()
        cost = (perf_counter() - t0 - bare) / n
        del self.spans[-n:]
        return max(cost, 0.0)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, reply, tag) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": t0, "end": t1, "parent": parent, "reply": reply, "tag": tag},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


class BackendProxy:
    """Times and counts ``forward`` and ``forward_candidates``; passes every other
    attribute through to the wrapped backend unchanged.

    For ``backend.repeat_position_share`` it keeps a trie of the token
    sequences the current reply has already sent: the leading positions of a
    call that are in the trie were processed by an earlier call.
    """

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner
        self._trie: dict = {}
        self._trie_reply = None

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _repeats(self, seq) -> int:
        if self._tracer.reply != self._trie_reply:
            self._trie, self._trie_reply = {}, self._tracer.reply
        node, seen = self._trie, 0
        for t in seq:
            nxt = node.get(t)
            if nxt is None:
                break
            node, seen = nxt, seen + 1
        for t in seq[seen:]:
            node[t] = {}
            node = node[t]
        return seen

    def forward(self, prefix, want_all_hidden=False):
        seq = [int(t) for t in prefix]
        tag = (len(seq), self._repeats(seq), bool(want_all_hidden))
        return self._tracer.call("backend.forward", self._inner.forward, (prefix, want_all_hidden), tag=tag)

    def forward_candidates(self, prefix, candidates):
        base = [int(t) for t in prefix]
        repeats = sum(self._repeats(base + [int(c)]) for c in candidates)
        tag = (len(candidates) * (len(base) + 1), repeats, len(candidates))
        return self._tracer.call(
            "backend.forward_candidates", self._inner.forward_candidates, (prefix, candidates), tag=tag
        )


def _flop(t: int, shape) -> int:
    """Computed FLOPs of one forward over t positions: 2*(L*(12*t*d^2 + 2*t^2*d) + V*d)."""
    v, d, layers = shape
    return 2 * (layers * (12 * t * d * d + 2 * t * t * d) + v * d)


def _child_seconds(spans) -> list[float]:
    """For each span, the summed duration of its direct children."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    return child


def percentile(xs, p: int) -> float:
    """The p-th percentile of xs by linear interpolation; 0.0 for an empty list."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def layer_metrics(tracer: Tracer, shape, server_delta=None) -> dict:
    """Per-layer metrics from the spans of one traced phase.

    ``shape`` is (V, d, L) for the computed FLOPs; ``server_delta`` holds the
    wire server's request, compute-time and byte counts over the phase.
    """
    spans = tracer.spans
    child = _child_seconds(spans)
    s = defaultdict(float)  # accumulated seconds and counts, by key
    per_strategy = defaultdict(lambda: [0, 0.0])  # strategy -> [replies, seconds]
    requests_s = []
    for i, (name, t0, t1, parent, _, tag) in enumerate(spans):
        dur = t1 - t0
        pname = spans[parent][0] if parent is not None else None
        ptag = spans[parent][5] if parent is not None else None
        if name == "generate":
            strategy, ntok = tag
            s["replies"] += 1
            s["tokens"] += ntok
            s["gen_s"] += dur
            per_strategy[strategy][0] += 1
            per_strategy[strategy][1] += dur
            if strategy == "beam":
                s["beam_replies"] += 1
                s["beam_self_s"] += dur - child[i]
            else:
                s["loop_tokens"] += ntok
                s["loop_self_s"] += dur - child[i]
        elif name in ("backend.forward", "backend.forward_candidates"):
            positions, repeats = tag[0], tag[1]
            key = "fwd" if name == "backend.forward" else "fc"
            s[key + "_calls"] += 1
            s[key + "_s"] += dur
            s[key + "_positions"] += positions
            s["repeats"] += repeats
            requests_s.append(dur)
            if key == "fwd":
                s["flop"] += _flop(positions, shape)
                if tag[2] and pname == "generate":
                    s["context_s"] += dur
            else:
                s["fc_candidates"] += tag[2]
                s["flop"] += tag[2] * _flop(positions // tag[2], shape)
            if pname == "generate":
                s["backend_in_gen_s"] += dur
                if ptag[0] == "beam":
                    s["beam_forwards"] += 1
            elif pname == "cli.main":
                s["cli_extra_forwards"] += 1
        elif name == "cli.main":
            s["cli_runs"] += 1
            s["cli_self_s"] += dur - child[i]
        else:
            s[name] += dur
            s[name + ".calls"] += 1

    tok = s["tokens"] or 1.0
    rep = s["replies"] or 1.0
    backend_s = s["fwd_s"] + s["fc_s"]
    positions = s["fwd_positions"] + s["fc_positions"]
    per_tok_ms = lambda key: 1000.0 * s[key] / tok  # noqa: E731
    m = {
        "backend.forward.calls_per_token": s["fwd_calls"] / tok,
        "backend.forward.positions_per_token": s["fwd_positions"] / tok,
        "backend.forward.ms_per_token": per_tok_ms("fwd_s"),
        "backend.forward_candidates.calls_per_token": s["fc_calls"] / tok,
        "backend.forward_candidates.candidates_per_token": s["fc_candidates"] / tok,
        "backend.forward_candidates.positions_per_token": s["fc_positions"] / tok,
        "backend.forward_candidates.ms_per_token": per_tok_ms("fc_s"),
        "backend.forwards_per_token": (s["fwd_calls"] + s["fc_candidates"]) / tok,
        "backend.context.ms_per_reply": 1000.0 * s["context_s"] / rep,
        "backend.repeat_position_share": s["repeats"] / positions if positions else 0.0,
        "backend.gflop_per_token": s["flop"] / 1e9 / tok,
        "backend.gflops": s["flop"] / 1e9 / backend_s if backend_s else 0.0,
        "backend.share": s["backend_in_gen_s"] / s["gen_s"] if s["gen_s"] else 0.0,
        "strategies.select.ms_per_token": 1000.0 * sum(s[n] for n in SELECT) / tok,
        "strategies.select.calls_per_token": sum(s[n + ".calls"] for n in SELECT) / tok,
        "strategies.beam.forwards_per_reply": s["beam_forwards"] / s["beam_replies"] if s["beam_replies"] else 0.0,
        "strategies.beam.self_ms_per_reply": 1000.0 * s["beam_self_s"] / s["beam_replies"] if s["beam_replies"] else 0.0,
        "strategies.loop.self_ms_per_token": 1000.0 * s["loop_self_s"] / s["loop_tokens"] if s["loop_tokens"] else 0.0,
        "scoring.ms_per_token": 1000.0 * sum(s[n] for n in SCORING) / tok,
        **{f"{n}.ms_per_token": per_tok_ms(n) for n in SCORING},
        "scoring.cosine.calls_per_token": tracer.counts["scoring.cosine"] / tok,
        "metrics.diagnostics.ms_per_reply": 1000.0 * s["metrics.diagnostics"] / rep,
        "metrics.distinct_n.ms_per_run": 1000.0 * s["metrics.distinct_n"] / s["cli_runs"] if s["cli_runs"] else 0.0,
        "cli.extra_forwards_per_reply": s["cli_extra_forwards"] / rep,
        "cli.self_ms_per_reply": 1000.0 * s["cli_self_s"] / rep,
        **{
            f"cli.generate.{st}.ms_per_reply": (
                1000.0 * per_strategy[st][1] / per_strategy[st][0]
                if s["cli_runs"] and per_strategy[st][0]
                else 0.0
            )
            for st in STRATEGIES
        },
    }
    remote = {k: 0.0 for k in PER_LAYER if k.startswith("backend.remote.")}
    if server_delta is not None:
        remote.update(
            {
                "backend.remote.requests_per_token": server_delta["requests"] / tok,
                "backend.remote.request_ms_p50": 1000.0 * percentile(requests_s, 50),
                "backend.remote.request_ms_p90": 1000.0 * percentile(requests_s, 90),
                "backend.remote.server_ms_per_token": 1000.0 * server_delta["compute_s"] / tok,
                "backend.remote.client_ms_per_token": 1000.0 * (backend_s - server_delta["compute_s"]) / tok,
                "backend.remote.response_bytes_per_token": server_delta["response_bytes"] / tok,
                "backend.remote.failed_requests": float(
                    tracer.counts["backend.forward.failed"] + tracer.counts["backend.forward_candidates.failed"]
                ),
            }
        )
    m.update(remote)
    if not s["replies"]:  # no reply spans, as when ipsearch.cli.generate is gone: no per-reply basis
        return {name: None for name in m}
    for name, (_, needs) in PER_LAYER.items():
        if any(n in tracer.missing for n in needs):
            m[name] = None
    return m


def self_time_breakdown(tracer: Tracer) -> dict:
    """Seconds of self time by layer, inside ``generate`` spans only.

    Backend, scoring and selection spans never nest inside one another, so
    their durations are their self times; the loop's self time is what
    remains of each ``generate`` span.
    """
    spans = tracer.spans
    child = _child_seconds(spans)
    out = Counter()
    for i, (name, t0, t1, parent, _, _) in enumerate(spans):
        if name == "generate":
            out["generate"] += t1 - t0
            out["loop"] += (t1 - t0) - child[i]
        elif parent is not None and spans[parent][0] == "generate":
            layer = name.split(".")[0]
            out[layer] += (t1 - t0) - child[i]
    return out
