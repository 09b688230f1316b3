"""Diversity metrics, diagnostics, and heatmap CSV export."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipsearch import (
    ArgumentError,
    DegenerateVectorError,
    GenerationResult,
    StepRecord,
    diagnostics,
    distinct_n,
    read_heatmap_csv,
    similarity_heatmap,
    write_heatmap_csv,
)

from oracles import o_cosine

corpus = st.lists(st.lists(st.integers(0, 9), min_size=0, max_size=8), min_size=1, max_size=6)


class TestDistinctN:
    def test_repeated_unigram(self):
        assert distinct_n([[7, 7, 7, 7]], 1) == 0.25

    def test_all_unique_bigrams(self):
        assert distinct_n([[1, 2, 3, 4]], 2) == 1.0

    def test_pooled_across_responses(self):
        # bigrams: (1,2),(2,1),(1,2) plus (1,2); unique {(1,2),(2,1)} of 4
        assert distinct_n([[1, 2, 1, 2], [1, 2]], 2) == 0.5

    def test_short_responses_contribute_nothing(self):
        assert distinct_n([[1], [2]], 2) == 0.0

    def test_bad_n(self):
        with pytest.raises(ArgumentError):
            distinct_n([[1, 2]], 0)
        with pytest.raises(ArgumentError):  # a bool is not an n-gram length
            distinct_n([[1, 2]], True)

    @pytest.mark.parametrize("response", [[True, 1], [1.5, 1.0], [np.float64(2.0)], [np.bool_(True)]])
    def test_non_integer_token_is_an_argument_error(self, response):
        # Counted as the ints they equal, True and 1, or 1.5 and 1.0, would be one token.
        with pytest.raises(ArgumentError, match="response 1 contains a non-integer token"):
            distinct_n([[1, 2], response], 1)

    def test_numpy_integer_tokens_count_as_their_ints(self):
        assert distinct_n([np.array([3, 3, 4]), [np.int32(4), 3]], 1) == 0.4

    @given(corpus, st.integers(1, 4))
    @settings(max_examples=100)
    def test_bounds(self, responses, n):
        assert 0.0 <= distinct_n(responses, n) <= 1.0

    @given(corpus, st.integers(1, 3), st.randoms())
    @settings(max_examples=100)
    def test_permutation_invariant(self, responses, n, rnd):
        shuffled = list(responses)
        rnd.shuffle(shuffled)
        assert distinct_n(shuffled, n) == distinct_n(responses, n)

    @given(corpus, st.integers(1, 3))
    @settings(max_examples=50)
    def test_empty_response_changes_nothing(self, responses, n):
        assert distinct_n(responses + [[]], n) == distinct_n(responses, n)


class TestSimilarityHeatmap:
    def test_single_vector(self):
        m = similarity_heatmap([[1.0, 2.0]])
        np.testing.assert_allclose(m, [[1.0]], atol=1e-9)

    def test_orthogonal_pair(self):
        m = similarity_heatmap([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(m, [[1, 0], [0, 1]], atol=1e-12)

    def test_matches_elementwise_oracle(self):
        vecs = [[1.0, 2.0, 0.5], [-1.0, 0.3, 2.0], [0.4, 0.4, 0.4]]
        m = similarity_heatmap(vecs)
        for i in range(3):
            for j in range(3):
                assert m[i, j] == pytest.approx(o_cosine(vecs[i], vecs[j]), abs=1e-12)

    def test_symmetry_exact_and_unit_diagonal(self, tiny_backend):
        hiddens = tiny_backend.forward(list(range(8)), want_all_hidden=True).hidden_all
        m = similarity_heatmap(hiddens)
        assert np.array_equal(m, m.T)
        np.testing.assert_allclose(np.diag(m), 1.0, atol=1e-9)

    def test_degenerate_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            similarity_heatmap([[1.0, 0.0], [0.0, 0.0]])


def make_result(n):
    return GenerationResult(
        tokens=list(range(n)),
        per_step=[StepRecord(token=i, prob=0.5, p_value=0.1, i_value=0.2, score=0.3) for i in range(n)],
        stop_reason="max_len",
        elapsed=0.0,
    )


class TestDiagnostics:
    def test_identical_hiddens_give_unit_intra(self):
        v = [1.0, 1.0]
        d = diagnostics(make_result(3), [v, v, v], [[1.0, 0.0]])
        assert d.mean_intra_response_cosine == pytest.approx(1.0, abs=1e-12)

    def test_single_hidden_convention(self):
        d = diagnostics(make_result(1), [[1.0, 0.0]], [[0.0, 1.0]])
        assert d.mean_intra_response_cosine == 1.0
        assert d.mean_context_cosine == 0.0

    def test_three_vector_pair_enumeration(self):
        vecs = [[1.0, 0.0, 1.0], [0.5, 2.0, 0.0], [1.0, 1.0, 1.0]]
        ureps = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
        d = diagnostics(make_result(3), vecs, ureps)
        pairs = [o_cosine(vecs[i], vecs[j]) for i in range(3) for j in range(i + 1, 3)]
        assert d.mean_intra_response_cosine == pytest.approx(sum(pairs) / 3, abs=1e-12)
        rep = np.mean(np.array(vecs), axis=0)
        expected_ctx = np.mean([o_cosine(rep, u) for u in ureps])
        assert d.mean_context_cosine == pytest.approx(expected_ctx, abs=1e-12)

    def test_bounds(self):
        d = diagnostics(make_result(2), [[1.0, 0.2], [-1.0, 0.1]], [[0.3, -0.9]])
        assert -1.0 <= d.mean_intra_response_cosine <= 1.0
        assert -1.0 <= d.mean_context_cosine <= 1.0

    def test_empty_result_rejected(self):
        empty = GenerationResult(tokens=[], per_step=[], stop_reason="max_len", elapsed=0.0)
        with pytest.raises(ArgumentError):
            diagnostics(empty, [[1.0]], [[1.0]])


class TestHeatmapCsv:
    def test_round_trip_within_1e6(self, tmp_path, tiny_backend):
        hiddens = tiny_backend.forward([4, 9, 2, 7], want_all_hidden=True).hidden_all
        matrix = similarity_heatmap(hiddens)
        path = tmp_path / "heatmap.csv"
        write_heatmap_csv(path, [str(t) for t in [4, 9, 2, 7]], matrix)
        labels, parsed = read_heatmap_csv(path)
        assert labels == ["4", "9", "2", "7"]
        np.testing.assert_allclose(parsed, matrix, atol=1e-6)

    def test_layout(self, tmp_path):
        path = tmp_path / "m.csv"
        write_heatmap_csv(path, ["a", "b"], np.array([[1.0, 0.25], [0.25, 1.0]]))
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "a,1.000000,0.250000"
        assert lines[2] == "b,0.250000,1.000000"

    def test_label_count_mismatch(self, tmp_path):
        with pytest.raises(ArgumentError):
            write_heatmap_csv(tmp_path / "x.csv", ["a"], np.eye(2))

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("a,b\na,1.0,0.5\nb,0.5\n", "row 3 has 2 fields, expected 3"),  # ragged body
            ("a,b\na,1.0,0.5\nb,x,1.0\n", "row 3: could not convert string to float: 'x'"),
            ("a,b\na,nan,0.5\nb,0.5,inf\n", "row 2 holds a non-finite value"),
            ("", "heatmap file is empty"),
            ("a,b\na,1.0,0.5\n", r"body shape \(1, 2\) does not match header"),  # a row short
        ],
    )
    def test_malformed_body_is_an_argument_error(self, tmp_path, text, problem):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ArgumentError, match=problem):
            read_heatmap_csv(path)
