"""CLI contracts: exit codes, determinism, metric recomputation, file formats."""
from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from ipsearch import TinyTransformer, distinct_n, read_heatmap_csv, similarity_heatmap
from ipsearch import cli
from ipsearch.cli import main
from ipsearch.core import STRATEGIES

from conftest import TINY_ARGS, CountingBackend, count_passes

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TINY = "tiny:42,64,16,2,2"
SCRIPTED = f"scripted:{FIXTURES / 'scripted_demo.json'}"


def run(args):
    return main([str(a) for a in args])


def write_records(path: Path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def strip_elapsed(text: str) -> str:
    return re.sub(r'"elapsed_s":[0-9.eE+-]+', '"elapsed_s":_', text)


@pytest.fixture
def records_file(tmp_path):
    path = tmp_path / "in.jsonl"
    write_records(
        path,
        [
            {"id": "a", "context_tokens": [[5, 6], [7, 8, 9]]},
            {"id": "b", "context_tokens": [[12, 3, 44]]},
            {"id": "c", "context_tokens": [[1, 2], [3, 4]]},
        ],
    )
    return path


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path, records_file):
        out1, out2 = tmp_path / "o1.jsonl", tmp_path / "o2.jsonl"
        base = ["generate", "--input", records_file, "--backend", TINY,
                "--strategy", "greedy", "--max-new-tokens", 5]
        assert run(base + ["--output", out1]) == 0
        assert run(base + ["--output", out2]) == 0
        assert strip_elapsed(out1.read_text()) == strip_elapsed(out2.read_text())
        lines = out1.read_text().splitlines()
        assert len(lines) == 3
        docs = [json.loads(line) for line in lines]
        assert [d["id"] for d in docs] == ["a", "b", "c"]
        assert all(d["strategy"] == "greedy" for d in docs)

    def test_malformed_line_names_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "context_tokens": [[1]]}\n{oops\n')
        code = run(["generate", "--input", path, "--backend", TINY,
                    "--strategy", "greedy", "--output", tmp_path / "o.jsonl"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_out_of_vocab_token_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        write_records(path, [{"id": "a", "context_tokens": [[1]]},
                             {"id": "b", "context_tokens": [[999]]}])
        code = run(["generate", "--input", path, "--backend", TINY,
                    "--strategy", "greedy", "--output", tmp_path / "o.jsonl"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_backend_failure_exit_code(self, tmp_path, capsys):
        # valid ids for the scripted vocabulary, but no table entry
        path = tmp_path / "in.jsonl"
        write_records(path, [{"id": "a", "context_tokens": [[1]]}])
        code = run(["generate", "--input", path, "--backend", SCRIPTED,
                    "--strategy", "greedy", "--m", 4, "--first-k", 4,
                    "--output", tmp_path / "o.jsonl"])
        assert code == 3

    def test_length_limit_is_a_backend_failure(self, tmp_path, monkeypatch, capsys):
        model = TinyTransformer(seed=42, vocab_size=64, hidden_dim=16, layers=2, heads=2, max_seq_len=12)
        monkeypatch.setattr(cli, "build_backend", lambda spec: model)
        records = tmp_path / "in.jsonl"
        write_records(records, [{"id": "a", "context_tokens": [[47, 48, 49, 50, 51, 52, 53, 54]]}])
        code = run(["generate", "--input", records, "--backend", TINY,
                    "--strategy", "ips", "--max-new-tokens", 8, "--output", tmp_path / "o.jsonl"])
        assert code == 3
        assert "exceeds max_seq_len 12" in capsys.readouterr().err

    def test_ips_default_settings_run_end_to_end(self, tmp_path, records_file):
        out = tmp_path / "o.jsonl"
        code = run(["generate", "--input", records_file, "--backend", TINY,
                    "--strategy", "ips", "--max-new-tokens", 6, "--seed", 1,
                    "--output", out])
        assert code == 0
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        for doc in docs:
            assert len(doc["trace"]) == len(doc["tokens"])
            for step in doc["trace"][:2]:
                assert step["p_value"] is None
            for step in doc["trace"][2:]:
                assert step["p_value"] is not None and step["score"] is not None

    def test_env_var_supplies_backend(self, tmp_path, records_file, monkeypatch):
        monkeypatch.setenv("IPS_BACKEND", TINY)
        code = run(["generate", "--input", records_file, "--strategy", "greedy",
                    "--max-new-tokens", 3, "--output", tmp_path / "o.jsonl"])
        assert code == 0

    def test_no_backend_is_usage_error(self, tmp_path, records_file, monkeypatch, capsys):
        monkeypatch.delenv("IPS_BACKEND", raising=False)
        code = run(["generate", "--input", records_file, "--strategy", "greedy",
                    "--output", tmp_path / "o.jsonl"])
        assert code == 2
        assert "IPS_BACKEND" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path, records_file):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"strategy": "greedy", "max_new_tokens": 3, "alpha": 0.9}))
        out = tmp_path / "o.jsonl"
        code = run(["generate", "--input", records_file, "--backend", TINY,
                    "--config", cfg_path, "--strategy", "ips", "--first-n", 0,
                    "--output", out])
        assert code == 0
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(d["strategy"] == "ips" for d in docs)
        assert all(len(d["tokens"]) <= 3 for d in docs)  # config value kept

    def test_boolean_in_config_file_is_usage_error(self, tmp_path, records_file, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"strategy": "beam", "beam_width": True}))
        code = run(["generate", "--input", records_file, "--backend", TINY,
                    "--config", cfg_path, "--output", tmp_path / "o.jsonl"])
        assert code == 2
        assert "beam_width" in capsys.readouterr().err

    @pytest.mark.parametrize("heads", [0, -2])
    def test_tiny_spec_without_heads_is_usage_error(self, tmp_path, records_file, capsys, heads):
        code = run(["generate", "--input", records_file, "--backend", f"tiny:42,64,16,2,{heads}",
                    "--strategy", "ips", "--max-new-tokens", 3, "--output", tmp_path / "o.jsonl"])
        assert code == 2
        assert f"heads must be >= 1, got {heads}" in capsys.readouterr().err

    def test_whitespace_records_decode_text(self, tmp_path):
        out = tmp_path / "o.jsonl"
        code = run(["generate", "--input", FIXTURES / "dialogues_text.jsonl",
                    "--backend", TINY, "--vocab", FIXTURES / "vocab_demo.json",
                    "--strategy", "greedy", "--max-new-tokens", 3, "--output", out])
        assert code == 0
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(isinstance(d["text"], str) for d in docs)

    def test_vocab_leaves_id_records_as_they_are(self, tmp_path):
        # One file of an id record and a text record runs under --vocab, and
        # the id record decodes as it does without one.
        records = tmp_path / "mixed.jsonl"
        write_records(records, [{"id": "ids", "context_tokens": [[5, 6], [7, 8, 9]]},
                                {"id": "text", "context": ["hello how are you"]}])
        base = ["generate", "--backend", TINY, "--strategy", "greedy", "--max-new-tokens", 3]
        assert run([*base, "--input", records, "--vocab", FIXTURES / "vocab_demo.json",
                    "--output", tmp_path / "vocab.jsonl"]) == 0
        write_records(records, [{"id": "ids", "context_tokens": [[5, 6], [7, 8, 9]]}])
        assert run([*base, "--input", records, "--output", tmp_path / "ids.jsonl"]) == 0
        with_vocab = [json.loads(line) for line in (tmp_path / "vocab.jsonl").read_text().splitlines()]
        (without,) = [json.loads(line) for line in (tmp_path / "ids.jsonl").read_text().splitlines()]
        assert [d["id"] for d in with_vocab] == ["ids", "text"]
        assert with_vocab[0]["tokens"] == without["tokens"]

    def test_string_context_without_vocab_rejected(self, tmp_path, capsys):
        code = run(["generate", "--input", FIXTURES / "dialogues_text.jsonl",
                    "--backend", TINY, "--strategy", "greedy",
                    "--output", tmp_path / "o.jsonl"])
        assert code == 2
        assert "line 1" in capsys.readouterr().err


class TestCompare:
    def run_compare(self, tmp_path, records_file, strategies, seeds, name="cmp.json"):
        out = tmp_path / name
        code = run(["compare", "--input", records_file, "--backend", TINY,
                    "--strategies", strategies, "--seeds", seeds,
                    "--max-new-tokens", 4, "--output", out])
        assert code == 0
        return json.loads(out.read_text())

    def test_distinct_matches_recomputation(self, tmp_path, records_file):
        table = self.run_compare(tmp_path, records_file, "greedy", "1")
        assert len(table["rows"]) == 1
        gen_out = tmp_path / "gen.jsonl"
        assert run(["generate", "--input", records_file, "--backend", TINY,
                    "--strategy", "greedy", "--max-new-tokens", 4, "--seed", 1,
                    "--output", gen_out]) == 0
        responses = [
            [t for t in json.loads(line)["tokens"] if t != 63]
            for line in gen_out.read_text().splitlines()
        ]
        row = table["rows"][0]
        assert row["distinct2"] == round(distinct_n(responses, 2), 6)
        assert row["distinct4"] == round(distinct_n(responses, 4), 6)

    def test_values_are_seed_means(self, tmp_path, records_file):
        combined = self.run_compare(tmp_path, records_file, "topk", "1,2,3,4,5")
        singles = [
            self.run_compare(tmp_path, records_file, "topk", str(s), name=f"s{s}.json")
            for s in (1, 2, 3, 4, 5)
        ]
        for col in ("distinct2", "distinct4", "mean_intra_response_cosine", "mean_context_cosine"):
            mean = sum(t["rows"][0][col] for t in singles) / 5
            assert combined["rows"][0][col] == pytest.approx(mean, abs=5e-6)

    def test_deterministic_strategy_identical_across_seeds(self, tmp_path, records_file):
        a = self.run_compare(tmp_path, records_file, "greedy", "1", name="a.json")
        b = self.run_compare(tmp_path, records_file, "greedy", "7,8,9", name="b.json")
        for col in ("distinct2", "distinct4", "mean_intra_response_cosine", "mean_context_cosine"):
            assert a["rows"][0][col] == b["rows"][0][col]

    def test_table_text_printed(self, tmp_path, records_file, capsys):
        self.run_compare(tmp_path, records_file, "greedy,topk", "1")
        printed = capsys.readouterr().out
        assert "strategy" in printed and "dist2" in printed
        assert "greedy" in printed and "topk" in printed

    def test_one_extra_forward_per_reply(self, tmp_path, records_file, monkeypatch, tiny_backend):
        # Diagnostics reuse the utterance representations of the decoder's
        # context pass; only the response's hidden states cost a forward.
        backend = CountingBackend(tiny_backend)
        monkeypatch.setattr(cli, "build_backend", lambda spec: backend)
        generate, inside = cli.generate, []

        def counted_generate(b, ctx, cfg):
            before = backend.forward_calls
            result = generate(b, ctx, cfg)
            inside.append(backend.forward_calls - before)
            return result

        monkeypatch.setattr(cli, "generate", counted_generate)
        self.run_compare(tmp_path, records_file, "greedy,ips", "1,2")
        assert len(inside) == 3 * 2 * 2
        assert backend.forward_calls - sum(inside) == len(inside)

    def test_one_context_pass_per_record(self, tmp_path, records_file, monkeypatch):
        # Decoding runs record by record, so every (strategy, seed) reply of
        # a record runs on the model's kept pass of its context.
        model = TinyTransformer(**TINY_ARGS)
        passes = count_passes(monkeypatch, model)
        monkeypatch.setattr(cli, "build_backend", lambda spec: model)
        self.run_compare(tmp_path, records_file, ",".join(STRATEGIES), "1,2")
        assert passes["causal"] == 3


class TestHeatmap:
    def test_csv_properties_and_round_trip(self, tmp_path, records_file):
        out = tmp_path / "hm.csv"
        code = run(["heatmap", "--input", records_file, "--backend", TINY,
                    "--record-id", "b", "--strategy", "greedy",
                    "--max-new-tokens", 4, "--output", out])
        assert code == 0
        labels, matrix = read_heatmap_csv(out)
        assert matrix.shape == (len(labels), len(labels))
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-9)
        np.testing.assert_allclose(np.diag(matrix), 1.0, atol=1e-9)
        assert "63" not in labels  # separators excluded

    def test_round_trips_against_module(self, tmp_path, records_file, tiny_backend):
        out = tmp_path / "hm.csv"
        assert run(["heatmap", "--input", records_file, "--backend", TINY,
                    "--record-id", "b", "--strategy", "greedy",
                    "--max-new-tokens", 4, "--output", out]) == 0
        labels, matrix = read_heatmap_csv(out)
        full = [int(x) for x in labels]
        hiddens = []
        gen_out = tmp_path / "g.jsonl"
        assert run(["generate", "--input", records_file, "--backend", TINY,
                    "--strategy", "greedy", "--max-new-tokens", 4,
                    "--output", gen_out]) == 0
        tokens = json.loads(gen_out.read_text().splitlines()[1])["tokens"]
        seq = [12, 3, 44, 63] + tokens
        all_h = tiny_backend.forward(seq, want_all_hidden=True).hidden_all
        hiddens = [all_h[i] for i, t in enumerate(seq) if t != 63]
        expected = similarity_heatmap(hiddens)
        np.testing.assert_allclose(matrix, expected, atol=1e-6)

    def test_missing_record_id(self, tmp_path, records_file, capsys):
        code = run(["heatmap", "--input", records_file, "--backend", TINY,
                    "--record-id", "nope", "--output", tmp_path / "hm.csv"])
        assert code == 4
        assert "nope" in capsys.readouterr().err


def test_caching_backend_makes_no_forward(tmp_path, records_file, monkeypatch):
    # The decoder's sessions hold every hidden state that the diagnostics and
    # the heatmap read, so neither re-encodes a reply on a caching backend.
    model = TinyTransformer(seed=42, vocab_size=64, hidden_dim=16, layers=2, heads=2)
    forward, calls = model.forward, []

    def counted_forward(*args, **kwargs):
        calls.append(args)
        return forward(*args, **kwargs)

    monkeypatch.setattr(model, "forward", counted_forward)
    monkeypatch.setattr(cli, "build_backend", lambda spec: model)
    base = ["--input", records_file, "--backend", TINY, "--max-new-tokens", 4]
    assert run(["compare", *base, "--strategies", ",".join(STRATEGIES), "--seeds", "1,2",
                "--output", tmp_path / "cmp.json"]) == 0
    for strategy in STRATEGIES:
        assert run(["heatmap", *base, "--record-id", "a", "--strategy", strategy,
                    "--output", tmp_path / f"{strategy}.csv"]) == 0
    assert calls == []


def test_reply_ending_at_the_length_limit(tmp_path, monkeypatch, capsys):
    # generate never extends a session past the reply's last token, so its
    # reply fits; compare and heatmap also need that token's hidden state,
    # one position beyond max_seq_len.
    model = TinyTransformer(seed=42, vocab_size=64, hidden_dim=16, layers=2, heads=2, max_seq_len=12)
    monkeypatch.setattr(cli, "build_backend", lambda spec: model)
    records = tmp_path / "in.jsonl"
    write_records(records, [{"id": "a", "context_tokens": [[47, 48, 49, 50, 51, 52, 53, 54]]}])
    base = ["--input", records, "--backend", TINY, "--max-new-tokens", 4]
    out = tmp_path / "gen.jsonl"
    assert run(["generate", *base, "--strategy", "greedy", "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["tokens"]) == 4 and doc["stop_reason"] == "max_len"  # 9 + 4 = 13 tokens
    capsys.readouterr()
    for command in (
        ["compare", "--strategies", "greedy", "--seeds", "1"],
        ["heatmap", "--record-id", "a", "--strategy", "greedy"],
    ):
        assert run([*command, *base, "--output", tmp_path / "o"]) == 3
        assert "prefix length 13 exceeds max_seq_len 12" in capsys.readouterr().err


# -- exit codes -------------------------------------------------------------
#
# Each row runs one command with one failure: (options replaced or added,
# expected exit code, a fragment of the message). The files a row names are
# written by ``failure_files`` under the test's tmp_path.

COMMANDS = {
    "generate": ["generate", "--strategy", "greedy"],
    "compare": ["compare", "--strategies", "greedy", "--seeds", "1"],
    "heatmap": ["heatmap", "--record-id", "a", "--strategy", "greedy"],
}

FAILURES = {
    "missing-input": ({"--input": "missing.jsonl"}, 2, "cannot read input"),
    "non-utf8-input": ({"--input": "non_utf8"}, 2, "cannot read input"),
    "non-utf8-config": ({"--config": "non_utf8"}, 2, "cannot read config"),
    "non-utf8-vocab": ({"--vocab": "non_utf8"}, 2, "cannot read vocab file"),
    "malformed-json": ({"--input": "malformed.jsonl"}, 2, "line 2: invalid JSON"),
    "json-after-a-blank-line": ({"--input": "blank_then_malformed.jsonl"}, 2, "line 3: invalid JSON"),
    "empty-context": ({"--input": "empty_context.jsonl"}, 2, "line 1: context must be a non-empty list"),
    "out-of-vocab-id": ({"--input": "oov.jsonl"}, 2, "line 2: token id 999 outside vocabulary of size 64"),
    "eou-in-utterance": ({"--input": "eou.jsonl"}, 2, "line 1: utterance 0 contains the EOU id 63"),
    "number-utterance": ({"--input": "number_utt.jsonl"}, 2, "line 1: utterance 1"),
    "null-utterance": ({"--input": "null_utt.jsonl"}, 2, "line 1: utterance 1"),
    "null-id": ({"--input": "null_id.jsonl"}, 2, "line 2: record must be an object with a string 'id'"),
    "number-id": ({"--input": "number_id.jsonl"}, 2, "line 1: record must be an object with a string 'id'"),
    "boolean-vocab-id": (
        {"--input": "text.jsonl", "--vocab": "bool_vocab.json"}, 2, "must map words to integer ids"
    ),
    "bad-config-value": ({"--alpha": "2"}, 2, "bad config: alpha"),
    "bad-remote-url": ({"--backend": "remote:ftp://x"}, 2, "not an http or https URL"),
    "long-remote-label": ({"--backend": "remote:http://" + "a" * 64 + ".com"}, 2, "not an http or https URL"),
    "spec-without-colon": ({"--backend": "tiny"}, 2, "backend spec 'tiny' has no ':'"),
    "tiny-spec-arity": ({"--backend": "tiny:42,64,16,2"}, 2, "tiny backend spec needs seed,V,d,L,H"),
    "unknown-backend-kind": ({"--backend": "gpu:0"}, 2, "unknown backend kind 'gpu'"),
    "scripted-not-json": (
        {"--backend": "scripted:malformed.jsonl"}, 2, "scripted backend file is not valid JSON"
    ),
    "unwritable-output": ({"--output": "no_dir/out"}, 2, "no_dir"),
    "backend-failure": (
        {"--input": "unscripted.jsonl", "--backend": SCRIPTED, "--m": "4", "--first-k": "4"},
        3,
        "no table entry for prefix [1, 4]",
    ),
    "unreachable-remote": (
        {"--backend": "remote:http://127.0.0.1:1"}, 3, "backend 'remote:http://127.0.0.1:1' unavailable"
    ),
}

ROWS = [(c, f) for c in COMMANDS for f in FAILURES] + [("heatmap", "unknown-record-id")]


def failure_files(tmp_path: Path) -> None:
    (tmp_path / "non_utf8").write_bytes(b"\xff\xfe")
    (tmp_path / "malformed.jsonl").write_text('{"id": "a", "context_tokens": [[1]]}\n{oops\n')
    (tmp_path / "blank_then_malformed.jsonl").write_text('{"id": "a", "context_tokens": [[1]]}\n \n{oops\n')
    write_records(tmp_path / "empty_context.jsonl", [{"id": "a", "context_tokens": []}])
    write_records(tmp_path / "oov.jsonl", [{"id": "a", "context_tokens": [[1]]},
                                           {"id": "b", "context_tokens": [[999]]}])
    write_records(tmp_path / "eou.jsonl", [{"id": "a", "context_tokens": [[5, 63]]}])
    write_records(tmp_path / "number_utt.jsonl", [{"id": "a", "context_tokens": [[1, 2], 7]}])
    write_records(tmp_path / "null_utt.jsonl", [{"id": "a", "context_tokens": [[1, 2], None]}])
    write_records(tmp_path / "null_id.jsonl", [{"id": "a", "context_tokens": [[1]]},
                                               {"id": None, "context_tokens": [[1, 2]]}])
    write_records(tmp_path / "number_id.jsonl", [{"id": 7, "context_tokens": [[1, 2]]}])
    write_records(tmp_path / "text.jsonl", [{"id": "a", "context": ["hi there"]}])
    (tmp_path / "bool_vocab.json").write_text(json.dumps({"<unk>": 0, "hi": True, "there": 5}))
    write_records(tmp_path / "unscripted.jsonl", [{"id": "a", "context_tokens": [[1]]}])


@pytest.mark.parametrize("command,failure", ROWS, ids=[f"{c}-{f}" for c, f in ROWS])
def test_exit_code_table(tmp_path, records_file, capsys, monkeypatch, command, failure):
    monkeypatch.chdir(tmp_path)
    failure_files(tmp_path)
    if failure == "unknown-record-id":
        options, code, fragment = {"--record-id": "nope"}, 4, "record id 'nope' not found"
    else:
        options, code, fragment = FAILURES[failure]
    argv = {"--input": str(records_file), "--backend": TINY, "--max-new-tokens": "3",
            "--output": "out", **options}
    args = COMMANDS[command] + [a for pair in argv.items() for a in pair]
    assert run(args) == code
    err = capsys.readouterr().err
    assert fragment in err
    assert "Traceback" not in err


def test_generate_streams_lines_and_names_the_failing_record(tmp_path, monkeypatch, capsys):
    # Record "first" decodes on the scripted table, "second" has no entry.
    records = tmp_path / "in.jsonl"
    write_records(records, [{"id": "first", "context_tokens": [[0]]},
                            {"id": "second", "context_tokens": [[1]]}])
    out = tmp_path / "o.jsonl"
    generate, on_disk = cli.generate, []

    def generate_reading_output(backend, ctx, cfg):
        on_disk.append(out.read_text())
        return generate(backend, ctx, cfg)

    monkeypatch.setattr(cli, "generate", generate_reading_output)
    code = run(["generate", "--input", records, "--backend", SCRIPTED, "--strategy", "greedy",
                "--m", 4, "--first-k", 4, "--max-new-tokens", 2, "--output", out])
    assert code == 3
    err = capsys.readouterr().err
    assert "record 'second': no table entry" in err and "Traceback" not in err
    (line,) = out.read_text().splitlines()
    assert json.loads(line)["id"] == "first"
    assert on_disk == ["", line + "\n"]  # the first line was flushed before the second decode


def test_compare_names_the_record_strategy_and_seed_that_failed(tmp_path, monkeypatch, capsys):
    model = TinyTransformer(**TINY_ARGS, max_seq_len=12)
    monkeypatch.setattr(cli, "build_backend", lambda spec: model)
    records = tmp_path / "in.jsonl"
    # The second record's context is 9 tokens with the EOU, so its first
    # reply needs a hidden state at position 13.
    write_records(records, [
        {"id": "short", "context_tokens": [[1, 2]]},
        {"id": "long", "context_tokens": [[47, 48, 49, 50, 51, 52, 53, 54]]},
    ])
    code = run(["compare", "--input", records, "--backend", TINY, "--strategies", "topk,greedy",
                "--seeds", "5,6", "--max-new-tokens", 4, "--output", tmp_path / "o.json"])
    assert code == 3
    err = capsys.readouterr().err
    assert "record 'long', strategy 'topk', seed 5: prefix length 13 exceeds max_seq_len 12" in err
    assert "Traceback" not in err


def test_compare_checks_every_config_before_decoding(tmp_path, records_file, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "generate", lambda *a: calls.append(a))
    unwritable = tmp_path / "missing" / "o.json"
    for strategies, seeds, output, message in [
        ("greedy,ips,bogus", "1,2", tmp_path / "o.json", "bad config: strategy"),
        ("greedy,ips", "1,2", unwritable, str(unwritable)),  # found before the first decode
        ("greedy,ips", "1,x", tmp_path / "o.json", "bad --seeds value '1,x'"),
        (" , ", "1,2", tmp_path / "o.json", "compare needs at least one strategy and one seed"),
    ]:
        code = run(["compare", "--input", records_file, "--backend", TINY,
                    "--strategies", strategies, "--seeds", seeds, "--output", output])
        assert code == 2
        assert message in capsys.readouterr().err
        assert calls == []
