#!/usr/bin/env python3
"""Decoding benchmark for ipsearch.

Run from the repository root, for example:

    python3 perfbench/run.py --workload ips-short --seed 1 --seconds 20 --trace 0

It builds the workload's inputs from the seed, decodes them for the given
number of seconds and checks the outputs. With ``--trace 0`` the decoding is
timed with no instrumentation and the end-to-end metrics are reported; with
``--trace 1`` untraced and traced passes alternate, and the traced ones give
the per-layer metrics. Every metric is printed by name with its unit, and the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. BENCHMARK.json lists the workloads
and metrics; perfbench/README.md explains them.
"""
from __future__ import annotations

import os

# One BLAS thread: the model's matrices are small, and all load must stay
# within two threads (the decode loop and, for remote-ips, the wire server).
# This has to be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from calibrate import REFERENCE_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "tokens_per_s": "1/s",
    "replies_per_s": "1/s",
    "reply_ms_p50": "ms",
    "reply_ms_p90": "ms",
    "token_ms_p50": "ms",
}
GATE_RECORDS = 4  # decode workloads: replies whose steps are recomputed
GATE_STEPS = 3  # steps recomputed per reply
COMPARE_PART = 1  # records per in-process `compare` call
COMPARE_GATE_RECORDS = 2  # compare-all: records decoded directly and recomputed
BEAM_WIDTH = 2  # compare-all; at width 4 beam takes ~40% of the command


@dataclass
class Phase:
    # One sample per timed interval, a decode or on compare-all one `compare`
    # call: (replies, tokens, start, end); tokens is None where unknown.
    samples: list
    wall: float

    def add(self, other: "Phase") -> None:
        self.samples += other.samples
        self.wall += other.wall

    @property
    def replies(self) -> int:
        return sum(r for r, _, _, _ in self.samples)

    @property
    def tokens(self):
        counts = [n for _, n, _, _ in self.samples]
        return None if None in counts else sum(counts)


def distinct2(replies) -> float:
    """Corpus distinct-2: unique bigrams over all bigrams."""
    bigrams = [tuple(r[i : i + 2]) for r in replies for i in range(len(r) - 1)]
    return len(set(bigrams)) / len(bigrams) if bigrams else 0.0


class Runner:
    def __init__(self, w, seed: int, seconds: float):
        from ipsearch import DialogueContext, StrategyConfig

        inputs = make_inputs(w, seed)
        self.w = w
        self.seconds = seconds
        self.raw = inputs.contexts
        self.contexts = [DialogueContext(c) for c in inputs.contexts]
        self.seeds = inputs.sample_seeds
        self.cfgs = [
            StrategyConfig(strategy="ips", max_new_tokens=w.max_new_tokens, seed=s) for s in self.seeds
        ]
        self.rng = random.Random(seed)
        self.refs: dict = {}  # reply key -> tokens of its first decode
        self.tables: dict = {}  # compare input file -> its first output table
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_times: list[float] = []  # at the probe's reference speed
        self.probe = SpeedProbe()

    # -- bookkeeping --------------------------------------------------------

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)

    def same_tokens(self, key, tokens) -> bool:
        """Keep the first decode of each reply; later decodes must repeat it exactly."""
        return self.refs.setdefault(key, list(tokens)) == list(tokens)

    def recompute(self, backend, r: int, tokens, cfg) -> None:
        from gate import check_steps, sample_steps

        steps = sample_steps(self.rng, cfg, len(tokens), GATE_STEPS)
        if steps:
            failures = check_steps(backend, self.raw[r], tokens, cfg, steps)
            self.attempted += len(steps)
            for f in failures:
                self.fail(1, f"record {r}: {f}")

    # -- backend ------------------------------------------------------------

    def open_backend(self):
        from ipsearch import RemoteBackend, TinyTransformer

        inner = TinyTransformer(*self.w.model)
        if not self.w.remote:
            return inner, None
        from wire import WireServer

        server = WireServer(inner)
        try:
            return RemoteBackend(server.url), server
        except BaseException:
            server.close()
            raise

    @staticmethod
    def close_backend(backend, server) -> None:
        if server is None:
            return
        # RemoteBackend keeps its pooled keep-alive connection in a
        # requests.Session; closing it lets the server thread stop at once.
        session = getattr(backend, "_session", None)
        if session is not None:
            session.close()
        server.close()

    def time_setup(self) -> None:
        """Time constructing the backend (for remote-ips also starting the
        server and the client's /info handshake) a few times in a row,
        scaled by the speed probe taken before and after. Called at several
        moments of a run; remote-ips only while no other server runs."""
        k0 = self.probe.sample()
        times = []
        for _ in range(5 if self.w.remote else 10):
            t0 = perf_counter()
            backend, server = self.open_backend()
            times.append(perf_counter() - t0)
            self.close_backend(backend, server)
        k = (k0 + self.probe.sample()) / 2
        self.setup_times += [t * REFERENCE_S / k for t in times]

    # -- decode workloads ---------------------------------------------------

    def decode_phase(
        self, backend, min_seconds: float, min_replies: int, tracer=None, whole=False, probe=False, records=None
    ) -> Phase:
        """Decode the first ``records`` records (all by default) in turn until
        min_seconds have passed and at least min_replies were decoded. With
        ``whole``, stop only at the end of a pass, so that traced counters
        repeat exactly and the traced and untraced phases decode the same
        replies. With ``probe``, sample the speed probe after every reply
        (outside its timing)."""
        from ipsearch import generate

        samples = []
        if probe:
            self.probe.sample()
        n = records or len(self.contexts)
        i = 0
        start = perf_counter()
        while True:
            r = i % n
            i += 1
            self.attempted += 1
            t0 = perf_counter()
            try:
                if tracer is None:
                    result = generate(backend, self.contexts[r], self.cfgs[r])
                else:
                    result = tracer.reply_call(generate, backend, self.contexts[r], self.cfgs[r])
            except Exception:
                self.fail(1, f"record {r}: {traceback.format_exc(limit=3)}")
            else:
                samples.append((1, len(result.tokens), t0, perf_counter()))
                if probe:
                    self.probe.sample()
                if not self.same_tokens(r, result.tokens):
                    self.fail(1, f"record {r}: tokens differ from its first decode")
            if i >= min_replies and perf_counter() - start >= min_seconds:
                if not whole or i % n == 0:
                    break
        return Phase(samples, perf_counter() - start)

    def decode_gate(self, backend) -> None:
        for r in sorted(self.rng.sample(sorted(self.refs), min(GATE_RECORDS, len(self.refs)))):
            self.recompute(backend, r, self.refs[r], self.cfgs[r])

    # -- compare workload ---------------------------------------------------

    def compare_parts(self):
        """Write the records as JSONL files of COMPARE_PART records each.

        Each `compare` call decodes one part, so a run holds several calls,
        and a part decoded again must reproduce its first output table.
        """
        OUT_DIR.mkdir(exist_ok=True)
        parts = []
        for p in range(0, len(self.raw), COMPARE_PART):
            path = OUT_DIR / f"{self.w.name}-part{p // COMPARE_PART}.jsonl"
            chunk = self.raw[p : p + COMPARE_PART]
            path.write_text(
                "".join(json.dumps({"id": f"r{p + i}", "context_tokens": c}) + "\n" for i, c in enumerate(chunk))
            )
            parts.append((path, len(chunk)))
        return parts

    def compare_call(self, path, n_records, log, tracer=None):
        """One in-process `ipsearch compare` call over one part, checked.

        Returns its timed sample (replies, tokens, start, end), or None if it
        failed. ``log`` collects (reply key, tokens) from the ``cli.generate``
        wrapper; it is None where that name is gone, and then the replies are
        not checked one by one and their tokens are unknown.
        """
        from ipsearch import cli
        from ipsearch.core import STRATEGIES

        out = OUT_DIR / f"{self.w.name}-out.json"
        argv = [
            "compare", "--input", str(path), "--output", str(out), "--backend", self.w.spec,
            "--strategies", ",".join(STRATEGIES), "--seeds", ",".join(str(s) for s in self.seeds),
            "--max-new-tokens", str(self.w.max_new_tokens), "--beam-width", str(BEAM_WIDTH),
        ]  # fmt: skip
        expected = n_records * len(STRATEGIES) * len(self.seeds)
        self.attempted += expected
        first = len(log) if log is not None else 0
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv) if tracer is None else tracer.call("cli.main", cli.main, (argv,))
        except Exception:
            code = traceback.format_exc(limit=3)
        t1 = perf_counter()
        if code != 0:
            self.fail(expected, f"compare on {path.name} exited with {code}")
            return None
        tokens = None
        if log is not None:
            got = log[first:]
            bad = sum(not self.same_tokens(key, toks) for key, toks in got)
            if bad or len(got) != expected:
                self.fail(bad + abs(expected - len(got)), f"compare on {path.name}: {bad} replies differ")
            tokens = sum(len(toks) for _, toks in got)
        table = json.loads(out.read_text())
        for row in table["rows"]:
            row.pop("mean_elapsed_s", None)  # a timing column, not an output
        self.attempted += 1
        if self.tables.setdefault(path.name, table) != table:
            self.fail(1, f"compare table for {path.name} differs from its first run")
        return (expected, tokens, t0, t1)

    def compare_phase(
        self, parts, min_seconds: float, min_calls: int, tracer=None, whole=False, probe=False
    ) -> Phase:
        """Cycle `compare` calls over the parts until min_seconds have passed
        and at least min_calls were made; with ``whole``, only after whole passes.

        Each call is one timed sample, covering all the command does. A thin
        wrapper around ``ipsearch.cli.generate`` keeps each reply's tokens
        for the repeat check and, in the traced phase, records the reply
        span. With ``probe`` it also samples the speed probe after each
        reply, and the probe time is taken out of the call's time.
        """
        from ipsearch import cli

        orig = getattr(cli, "generate", None)
        log = None if orig is None else []  # (reply key, tokens)

        def sample_probe():
            if tracer is None:
                self.probe.sample()
            else:  # a span of its own, so that it is not counted in cli's self time
                tracer.call("probe", self.probe.sample, ())

        def logged_generate(backend, ctx, cfg):
            result = orig(backend, ctx, cfg) if tracer is None else tracer.reply_call(orig, backend, ctx, cfg)
            if probe:
                sample_probe()
            log.append(((tuple(map(tuple, ctx.utterances)), cfg.strategy, cfg.seed), result.tokens))
            return result

        samples = []
        calls = 0
        if probe:
            self.probe.sample()
        if orig is not None:
            cli.generate = logged_generate
        start = perf_counter()
        try:
            while (
                calls < min_calls
                or perf_counter() - start < min_seconds
                or (whole and calls % len(parts))
            ):
                path, n = parts[calls % len(parts)]
                sample = self.compare_call(path, n, log, tracer)
                if probe:
                    self.probe.sample()
                if sample is not None:
                    samples.append(sample)
                calls += 1
        finally:
            if orig is not None:
                cli.generate = orig
        return Phase(samples, perf_counter() - start)

    def compare_gate(self) -> None:
        """Decode the first records directly for IPS and contrastive; the
        tokens must match the `compare` run's and the steps must recompute."""
        from ipsearch import StrategyConfig, TinyTransformer, generate

        backend = TinyTransformer(*self.w.model)
        for strategy in ("ips", "contrastive"):
            cfg = StrategyConfig(
                strategy=strategy, seed=self.seeds[0], max_new_tokens=self.w.max_new_tokens, beam_width=BEAM_WIDTH
            )
            for r in range(min(COMPARE_GATE_RECORDS, len(self.contexts))):
                tokens = generate(backend, self.contexts[r], cfg).tokens
                key = (tuple(map(tuple, self.raw[r])), strategy, cfg.seed)
                if self.refs:  # empty where ipsearch.cli.generate is gone
                    self.attempted += 1
                    if self.refs.get(key) != tokens:
                        self.fail(1, f"record {r} {strategy}: direct decode differs from the compare run")
                self.recompute(backend, r, tokens, cfg)

    # -- metrics ------------------------------------------------------------

    def scaled_tokens_per_s(self, phase: Phase):
        tokens = phase.tokens
        return tokens / sum(self.probe.scaled(t0, t1) for _, _, t0, t1 in phase.samples) if tokens else None

    def end_to_end(self, phase: Phase) -> dict:
        """Metrics over every sample of the timed phase, each sample's time
        scaled to the probe's reference speed (see calibrate.py).

        A sample is one decode, except on compare-all, where it is one whole
        `compare` call: building the backend, reading the records, six
        strategies at two seeds, the extra forwards and diagnostics of each
        row and the distinct-n columns. Its reply latency is the call's time
        over the replies it made, and its token latency the call's time over
        their tokens.
        """
        from tracing import percentile

        if not phase.samples:
            return {name: None for name in END_TO_END}
        scaled = [self.probe.scaled(t0, t1) for _, _, t0, t1 in phase.samples]
        total = sum(scaled)
        tokens = phase.tokens
        per_reply = [t / r for t, (r, _, _, _) in zip(scaled, phase.samples)]
        per_token = None if tokens is None else [t / n for t, (_, n, _, _) in zip(scaled, phase.samples)]
        return {
            "setup_s": statistics.median(self.setup_times),
            "tokens_per_s": None if tokens is None else tokens / total,
            "replies_per_s": phase.replies / total,
            "reply_ms_p50": 1000.0 * statistics.median(per_reply),
            "reply_ms_p90": 1000.0 * percentile(per_reply, 90),
            "token_ms_p50": None if tokens is None else 1000.0 * statistics.median(per_token),
        }

    def output_quality(self) -> dict:
        """Corpus distinct-2 (EOU removed) and the share of replies that are a
        lone EOU, over each distinct reply of the run."""
        eou = self.w.eou
        replies = [self.refs[k] for k in sorted(self.refs, key=repr)]
        return {
            "decode.distinct2": distinct2([[t for t in r if t != eou] for r in replies]),
            "decode.empty_reply_share": sum(r[:1] == [eou] for r in replies) / max(len(replies), 1),
        }

    def digest(self) -> str:
        doc = {"replies": sorted([repr(k), v] for k, v in self.refs.items()), "tables": self.tables}
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

    # -- the two kinds of run -----------------------------------------------

    def run_untraced(self) -> dict:
        from ipsearch import cli

        self.time_setup()
        if self.w.kind == "compare":
            parts = self.compare_parts()
            if getattr(cli, "generate", None) is None:
                print("# ipsearch.cli.generate is gone: replies are not checked one by one, tokens are not counted")
            self.compare_phase(parts[:1], 0.0, 1)  # warm-up
            self.time_setup()
            phase = self.compare_phase(parts, self.seconds, len(parts), probe=True)
            self.time_setup()
            self.compare_gate()
        else:
            backend, server = self.open_backend()
            try:
                self.decode_phase(backend, 0.0, 1)  # warm-up
                if server is None:
                    self.time_setup()
                phase = self.decode_phase(backend, self.seconds, len(self.contexts), probe=True)
                if server is None:
                    self.time_setup()
                else:
                    print(f"# wire server: {server.connections} client connection(s), {server.requests} requests")
                self.decode_gate(backend)
            finally:
                self.close_backend(backend, server)
        self.time_setup()
        unscaled_s = sum(t1 - t0 for _, _, t0, t1 in phase.samples)
        probe_ms = 1000.0 * statistics.median(self.probe.seconds)
        print(
            f"# samples={len(phase.samples)} replies={phase.replies} distinct_replies={len(self.refs)}"
            f" wall_s={phase.wall:.3f} unscaled_replies_per_s={phase.replies / unscaled_s if unscaled_s else 0.0:.4f}"
            f" probe_ms_p50={probe_ms:.4f} (reference {1000.0 * REFERENCE_S:g})"
        )
        print(f"# failed_share {self.failed / max(self.attempted, 1):.6g} share")
        for name, value in self.output_quality().items():
            print(f"# {name} {value:.6g} share")
        return {name: (value, END_TO_END[name]) for name, value in self.end_to_end(phase).items()}

    def run_traced(self) -> dict:
        """Alternate untraced and traced passes over the first ``trace_records``
        records until --seconds have passed, so that both kinds see the same
        machine speed; the per-layer metrics come from the traced passes."""
        import tracing
        from ipsearch import cli

        tracer = tracing.Tracer()
        k = self.w.trace_records
        plain, traced = Phase([], 0.0), Phase([], 0.0)
        counters = ("requests", "compute_s", "response_bytes")
        server_delta = Counter()

        def install():
            tracer.install()
            if self.w.kind == "compare":
                tracer.patch(
                    "cli.build_backend", "ipsearch.cli", "build_backend",
                    lambda fn: lambda spec: tracing.BackendProxy(tracer, tracer.call("cli.build_backend", fn, (spec,))),
                )  # fmt: skip

        backend, server = self.open_backend() if self.w.kind == "decode" else (None, None)
        try:
            if self.w.kind == "compare":
                parts = self.compare_parts()[:k]
                self.compare_phase(parts[:1], 0.0, 1)  # warm-up
                one_pass = lambda t=None: self.compare_phase(parts, 0.0, k, t, whole=True, probe=True)  # noqa: E731
            else:
                self.decode_phase(backend, 0.0, 1)  # warm-up
                proxy = tracing.BackendProxy(tracer, backend)
                one_pass = lambda t=None: self.decode_phase(  # noqa: E731
                    backend if t is None else proxy, 0.0, k, t, whole=True, probe=True, records=k
                )
            start = perf_counter()
            rounds = 0
            while rounds == 0 or perf_counter() - start < self.seconds:
                plain.add(one_pass())
                before = {c: getattr(server, c) for c in counters} if server else {}
                install()
                try:
                    traced.add(one_pass(tracer))
                finally:
                    tracer.uninstall()
                server_delta.update({c: getattr(server, c) - v for c, v in before.items()})
                rounds += 1
            if self.w.kind == "compare":
                if getattr(cli, "generate", None) is None:  # compare_phase wraps it itself
                    tracer.missing.add("cli.generate")
                self.compare_gate()
            else:
                self.decode_gate(backend)
        finally:
            self.close_backend(backend, server)
        print(f"# rounds={rounds} traced_replies={traced.replies} wall_s={perf_counter() - start:.3f}")

        v, d, layers = self.w.model[1:4]
        metrics = tracing.layer_metrics(tracer, (v, d, layers), server_delta if server else None)
        metrics.update(self.output_quality())
        tokens = traced.tokens or 1
        # Both phases are scaled by the speed probe, so that the machine's
        # swings between them do not read as tracing overhead.
        plain_tps = self.scaled_tokens_per_s(plain)
        traced_tps = self.scaled_tokens_per_s(traced)
        n_wrapped = sum(span[0] != "probe" for span in tracer.spans) + sum(
            c for name, c in tracer.counts.items() if not name.endswith(".failed")
        )
        metrics["trace.overhead_share"] = plain_tps / traced_tps - 1.0 if plain_tps and traced_tps else None
        metrics["trace.wrapper_ms_per_token"] = 1000.0 * tracer.wrapper_cost_s() * n_wrapped / tokens

        own = tracing.self_time_breakdown(tracer)
        layer_ms = {k: 1000.0 * own[k] / tokens for k in ("backend", "scoring", "select", "loop")}
        print(
            "# self ms/token inside generate: "
            + " ".join(f"{k}={v:.4f}" for k, v in layer_ms.items())
            + f" sum={sum(layer_ms.values()):.4f} generate={1000.0 * own['generate'] / tokens:.4f}"
        )
        print(f"# scaled tokens_per_s untraced={plain_tps} traced={traced_tps}")
        if tracer.missing:
            print(f"# missing wrap targets: {', '.join(sorted(tracer.missing))}")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{self.w.name}.jsonl")
        return {name: (metrics[name], unit) for name, (unit, _) in tracing.PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ipsearch" / "__init__.py").is_file():
        print(f"perfbench: no ipsearch sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ipsearch
    import numpy

    if Path(ipsearch.__file__).resolve().parent != (src / "ipsearch").resolve():
        print(f"perfbench: imported ipsearch from {ipsearch.__file__}, not from {src}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    print(
        f"# machine nproc={os.cpu_count()} python={platform.python_version()}"
        f" numpy={numpy.__version__} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}"
    )
    print(f"# workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} records={w.records}")
    runner = Runner(w, args.seed, args.seconds)
    metrics = runner.run_traced() if args.trace else runner.run_untraced()

    for name, (value, unit) in metrics.items():
        print(f"{name} {'missing' if value is None else format(value, '.6g')} {unit}")
    print(f"# digest {runner.digest()}")
    for problem in runner.problems[:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    missing_e2e = not args.trace and any(value is None for value, _ in metrics.values())
    result = {
        "correct": runner.failed == 0 and not missing_e2e,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
