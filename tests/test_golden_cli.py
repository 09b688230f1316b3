"""Golden CLI outputs: generate, compare and heatmap reproduce stored bytes.

Each file under ``fixtures/golden/`` is one command's output file with its
timing fields removed. A change that must not alter any decision or printed
number keeps all of them byte-identical. To rewrite them after a change that
is meant to alter outputs, run ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""
from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

import pytest

from ipsearch.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = FIXTURES / "golden"
STRATEGIES = ("greedy", "beam", "topk", "nucleus", "contrastive", "ips")
COMMON = ["--input", FIXTURES / "dialogues.jsonl", "--backend", "tiny:42,64,16,2,2", "--max-new-tokens", 12]

CASES = {
    **{
        f"generate_{s}.jsonl": ["generate", *COMMON, "--strategy", s, "--seed", 9]
        for s in STRATEGIES
    },
    "compare.json": ["compare", *COMMON, "--strategies", ",".join(STRATEGIES), "--seeds", "1,2,3"],
    **{
        f"heatmap_r1_{s}.csv": ["heatmap", *COMMON, "--record-id", "r1", "--strategy", s, "--seed", 9]
        for s in ("greedy", "ips")
    },
}


def without_timing(text: str) -> str:
    return re.sub(r'("(?:mean_)?elapsed_s"):[0-9.eE+-]+', r"\1:_", text)


def run_case(name: str, out_dir: Path) -> str:
    out = out_dir / name
    code = main([str(a) for a in CASES[name] + ["--output", out]])
    assert code == 0, f"{name}: exit code {code}"
    return without_timing(out.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    assert run_case(name, tmp_path) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            (GOLDEN / name).write_text(run_case(name, Path(tmp)))
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
