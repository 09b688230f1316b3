"""Scoring formula oracles and algebraic properties."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipsearch import (
    ArgumentError,
    DegenerateVectorError,
    DimensionError,
    StrategyConfig,
    cosine,
    degeneration_penalty,
    ips_score,
    isotropic_value,
    proximal_value,
    response_representation,
    similarity_heatmap,
)

vec3 = st.lists(st.floats(-3, 3), min_size=3, max_size=3).filter(
    lambda v: sum(x * x for x in v) > 1e-6
)


class TestCosine:
    def test_identical_direction(self):
        assert cosine([1, 0], [1, 0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_hand_oracle(self):
        # dot = 4, norms sqrt(5)*sqrt(5) = 5
        assert cosine([1, 2], [2, 1]) == pytest.approx(0.8, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            cosine([1, 0], [1, 0, 0])

    def test_degenerate_vector(self):
        with pytest.raises(DegenerateVectorError):
            cosine([0.0, 0.0], [1.0, 0.0])

    @given(vec3, vec3)
    @settings(max_examples=200)
    def test_symmetry_exact(self, a, b):
        assert cosine(a, b) == cosine(b, a)

    @given(vec3, vec3, st.floats(0.01, 100))
    @settings(max_examples=200)
    def test_scale_invariance(self, a, b, c):
        scaled = [c * x for x in a]
        assert cosine(scaled, b) == pytest.approx(cosine(a, b), abs=1e-9)

    @given(vec3, vec3)
    @settings(max_examples=200)
    def test_range(self, a, b):
        assert -1.0 <= cosine(a, b) <= 1.0


class TestResponseRepresentation:
    def test_mean(self):
        np.testing.assert_allclose(response_representation([[2, 0], [0, 2]]), [1, 1])

    def test_single_element(self):
        np.testing.assert_allclose(response_representation([[4, 4]]), [4, 4])

    def test_candidate_folded_in(self):
        got = response_representation([[2, 0], [0, 2]], candidate=[4, 4])
        np.testing.assert_allclose(got, [2, 2])

    def test_empty_without_candidate(self):
        with pytest.raises(ArgumentError):
            response_representation([])

    def test_candidate_alone(self):
        np.testing.assert_allclose(response_representation([], candidate=[3, 1]), [3, 1])

    def test_mixed_lengths(self):
        with pytest.raises(DimensionError):
            response_representation([[1, 2], [1, 2, 3]])


class TestProximalValue:
    def test_self_similarity(self):
        v = [1.0, 2.0, 3.0]
        assert proximal_value(v, [v, v, v]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert proximal_value([1, 0], [[0, 1]]) == 0.0

    def test_hand_oracle(self):
        assert proximal_value([1, 0], [[1, 0], [0, 1]]) == pytest.approx(0.5, abs=1e-12)

    def test_empty_history_is_zero(self):
        assert proximal_value([1, 0], []) == 0.0

    @given(vec3, st.lists(vec3, min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_range(self, cand, hist):
        assert -1.0 <= proximal_value(cand, hist) <= 1.0


class TestIsotropicValue:
    def test_identical(self):
        assert isotropic_value([1, 2], [[1, 2]]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair(self):
        assert isotropic_value([1, 0], [[0, 1], [0, -1]]) == 0.0

    def test_opposed_pair_cancels(self):
        assert isotropic_value([1, 0], [[1, 0], [-1, 0]]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            isotropic_value([1, 0], [])

    @given(vec3, st.lists(vec3, min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_range(self, rep, ureps):
        assert -1.0 <= isotropic_value(rep, ureps) <= 1.0


class TestIpsScore:
    def test_alpha_one_is_pure_confidence(self):
        cfg = StrategyConfig(alpha=1.0)
        assert ips_score(0.37, 0.9, -0.4, cfg) == 0.37

    def test_eq5_arithmetic(self):
        cfg = StrategyConfig(alpha=0.6, penalty_form="eq5")
        for prob in (0.0, 0.25, 1.0):
            assert ips_score(prob, 0.5, 0.3, cfg) == pytest.approx(0.6 * prob + 0.4 * 0.2, abs=1e-12)

    def test_beta_form_halves_the_penalty(self):
        cfg = StrategyConfig(alpha=0.6, penalty_form="beta", beta=0.5)
        for prob in (0.0, 0.25, 1.0):
            assert ips_score(prob, 0.5, 0.3, cfg) == pytest.approx(0.6 * prob + 0.4 * 0.1, abs=1e-12)

    @given(
        st.lists(st.tuples(st.floats(0, 1), st.floats(-1, 1), st.floats(-1, 1)), min_size=2, max_size=8)
    )
    @settings(max_examples=200)
    def test_alpha_one_argmax_matches_prob_argmax(self, cands):
        cfg = StrategyConfig(alpha=1.0)
        scores = [ips_score(p, pv, iv, cfg) for p, pv, iv in cands]
        probs = [p for p, _, _ in cands]
        # identical tie-breaking: first maximum in both lists
        assert scores.index(max(scores)) == probs.index(max(probs))

    @given(st.floats(0, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(0, 1))
    @settings(max_examples=200)
    def test_eq5_bounds(self, prob, p_val, i_val, alpha):
        cfg = StrategyConfig(alpha=alpha, penalty_form="eq5")
        score = ips_score(prob, p_val, i_val, cfg)
        assert -(1 - alpha) * 2 - 1e-12 <= score <= alpha + (1 - alpha) * 2 + 1e-12


class TestDegenerationPenalty:
    def test_duplicate_of_prefix(self):
        assert degeneration_penalty([1, 0], [[0, 1], [1, 0]]) == 1.0
        v = [0.5, 0.5]
        assert degeneration_penalty(v, [[1, 0], v]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_to_all(self):
        assert degeneration_penalty([1, 0], [[0, 1], [0, -1]]) == 0.0

    def test_hand_oracle(self):
        got = degeneration_penalty([1, 0], [[0, 1], [1, 1]])
        assert got == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            degeneration_penalty([1, 0], [])


# Each case raises its error at the parent of the block kernel and after it.
ERROR_CONTRACT = {
    "heatmap-ragged-rows": (lambda: similarity_heatmap([[1, 0], [1, 0, 0]]), DimensionError),
    "proximal-ragged-history": (lambda: proximal_value([1, 0], [[1, 0], [1, 0, 2]]), DimensionError),
    "penalty-ragged-prefix": (lambda: degeneration_penalty([1, 0], [[1, 0], [1]]), DimensionError),
    "proximal-wrong-length-history": (lambda: proximal_value([1, 0], [[1, 0, 0]]), DimensionError),
    "isotropic-wrong-length-utterances": (lambda: isotropic_value([1, 0], [[1, 0, 0]]), DimensionError),
    "penalty-wrong-length-prefix": (lambda: degeneration_penalty([1, 0], [[1, 0, 0]]), DimensionError),
    "cosine-3d": (lambda: cosine(np.ones((2, 2, 2)), [1.0, 1.0]), DimensionError),
    "isotropic-3d-rep": (lambda: isotropic_value(np.ones((1, 1, 2)), [[1, 0]]), DimensionError),
    "isotropic-3d-utterances": (lambda: isotropic_value([1, 0], np.ones((2, 1, 2))), DimensionError),
    "representation-mixed-history": (lambda: response_representation([[1, 2], [1, 2, 3]]), DimensionError),
    "representation-mixed-candidate": (
        lambda: response_representation([[1, 2]], candidate=[1, 2, 3]), DimensionError
    ),
    "cosine-norm-at-threshold": (lambda: cosine([1e-12, 0.0], [1.0, 0.0]), DegenerateVectorError),
    "proximal-zero-history-row": (lambda: proximal_value([1, 0], [[1, 0], [0, 0]]), DegenerateVectorError),
    "isotropic-zero-rep": (lambda: isotropic_value([0, 0], [[1, 0]]), DegenerateVectorError),
    "penalty-zero-candidate": (lambda: degeneration_penalty([0, 0], [[1, 0]]), DegenerateVectorError),
    "heatmap-zero-row": (lambda: similarity_heatmap([[1, 0], [0, 0]]), DegenerateVectorError),
    "cosine-nan-component": (lambda: cosine([np.nan, 1.0], [1.0, 0.0]), DegenerateVectorError),
    "cosine-inf-component": (lambda: cosine([np.inf, 1.0], [1.0, 0.0]), DegenerateVectorError),
    "cosine-nan-in-second": (lambda: cosine([1.0, 0.0], [1.0, np.nan]), DegenerateVectorError),
    "proximal-nan-candidate-row": (
        lambda: proximal_value([[1, 0], [np.nan, 1]], [[1, 1]]), DegenerateVectorError
    ),
    "penalty-inf-prefix-row": (lambda: degeneration_penalty([1, 0], [[1, 1], [-np.inf, 0]]), DegenerateVectorError),
    "isotropic-no-utterances": (lambda: isotropic_value([1, 0], []), ArgumentError),
    "penalty-no-prefix": (lambda: degeneration_penalty([1, 0], []), ArgumentError),
    "representation-of-nothing": (lambda: response_representation([]), ArgumentError),
    "heatmap-of-nothing": (lambda: similarity_heatmap([]), ArgumentError),
}


@pytest.mark.parametrize("case", sorted(ERROR_CONTRACT))
def test_error_contract(case):
    call, error = ERROR_CONTRACT[case]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("a", [[1e200, 1.0], [[1.0, 0.0], [1e200, 1.0]]], ids=["vector", "matrix-row"])
def test_an_overflowing_norm_is_degenerate_where_warnings_are_errors(a):
    # Squaring 1e200 overflows: numpy's RuntimeWarning, an error here, is
    # not the error the contract names.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateVectorError, match="not finite"):
            cosine(a, [1.0, 2.0])


rows3 = st.lists(vec3, min_size=1, max_size=6)


class TestCandidateRows:
    """A matrix of candidate rows gives, per row, what one vector gives."""

    def test_cosine_shapes(self):
        a, b = [[1, 0], [0, 2], [1, 1]], [[1, 0], [0, 1]]
        assert isinstance(cosine([1, 0], [0, 1]), float)
        assert cosine([1, 0], b).shape == (2,)
        assert cosine(a, [1, 0]).shape == (3,)
        np.testing.assert_allclose(cosine(a, b), [[1, 0], [0, 1], [2**-0.5, 2**-0.5]], atol=1e-15)

    @given(rows3, rows3, rows3)
    @settings(max_examples=100)
    def test_each_row_is_its_single_vector_value(self, cands, hist, ureps):
        rows = np.array(cands)
        cfg = StrategyConfig(alpha=0.3)
        p_block = proximal_value(rows, hist)
        reps = response_representation(hist, candidate=rows)
        i_block = isotropic_value(reps, ureps)
        pen_block = degeneration_penalty(rows, hist)
        for i, cand in enumerate(cands):
            # The representation is bitwise a single candidate's.
            assert reps[i].tobytes() == response_representation(hist, candidate=cand).tobytes()
            assert p_block[i] == pytest.approx(proximal_value(cand, hist), abs=1e-12)
            assert i_block[i] == pytest.approx(isotropic_value(reps[i], ureps), abs=1e-12)
            assert pen_block[i] == pytest.approx(degeneration_penalty(cand, hist), abs=1e-12)
        np.testing.assert_array_equal(
            ips_score(rows[:, 0], p_block, i_block, cfg),
            [ips_score(c[0], p, v, cfg) for c, p, v in zip(cands, p_block, i_block)],
        )

    def test_empty_history_gives_zero_per_row(self):
        np.testing.assert_array_equal(proximal_value([[1, 0], [0, 1]], []), [0.0, 0.0])
        np.testing.assert_array_equal(response_representation([], candidate=[[1, 0], [0, 3]]), [[1, 0], [0, 3]])

    def test_degenerate_row_rejected(self):
        with pytest.raises(DegenerateVectorError):
            proximal_value([[1, 0], [0, 0]], [[1, 1]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionError):
            degeneration_penalty([[1, 0], [0, 1, 0]], [[1, 1]])
