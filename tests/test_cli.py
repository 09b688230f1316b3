"""CLI contracts: exit codes, determinism, metric recomputation, file formats."""
from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from ipsearch import distinct_n, read_heatmap_csv, similarity_heatmap
from ipsearch import cli
from ipsearch.cli import main

from conftest import CountingBackend

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

    def test_whitespace_records_decode_text(self, tmp_path):
        out = tmp_path / "o.jsonl"
        code = run(["generate", "--input", FIXTURES / "dialogues_text.jsonl",
                    "--backend", TINY, "--vocab", FIXTURES / "vocab_demo.json",
                    "--strategy", "greedy", "--max-new-tokens", 3, "--output", out])
        assert code == 0
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(isinstance(d["text"], str) for d in docs)

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
