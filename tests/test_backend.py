"""Scripted and tiny-transformer backend contracts."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipsearch import (
    ArgumentError,
    Backend,
    BackendInfo,
    MissingEntryError,
    ScriptedBackend,
    Session,
    StepOutput,
    TinyTransformer,
    ValidationError,
    VocabError,
)
from ipsearch.backend import _gelu, _layer_norm, _masked_softmax, _softmax

from conftest import TINY_ARGS, random_scripted


def small_info():
    return BackendInfo(vocab_size=4, hidden_dim=2, eou_token_id=3)


class TestBackendInfo:
    def test_rejects_tiny_vocab(self):
        with pytest.raises(ValidationError):
            BackendInfo(vocab_size=1, hidden_dim=2, eou_token_id=0)

    def test_rejects_zero_hidden_dim(self):
        with pytest.raises(ValidationError, match="hidden_dim must be >= 1, got 0"):
            BackendInfo(vocab_size=4, hidden_dim=0, eou_token_id=3)

    def test_rejects_eou_out_of_range(self):
        with pytest.raises(ValidationError):
            BackendInfo(vocab_size=4, hidden_dim=2, eou_token_id=4)

    @pytest.mark.parametrize("field", ["vocab_size", "hidden_dim", "eou_token_id"])
    @pytest.mark.parametrize("value", [3.0, 64.9, "3", True, None])
    def test_rejects_non_integer_fields(self, field, value):
        fields = {"vocab_size": 8, "hidden_dim": 4, "eou_token_id": 7, field: value}
        with pytest.raises(ValidationError, match=field):
            BackendInfo(**fields)

    def test_accepts_numpy_integers(self):
        info = BackendInfo(vocab_size=np.int64(8), hidden_dim=np.int32(4), eou_token_id=np.uint8(7))
        assert info == BackendInfo(vocab_size=8, hidden_dim=4, eou_token_id=7)


class TestScriptedBackend:
    def table(self):
        return {
            (1,): StepOutput(
                probs=np.array([0.7, 0.2, 0.1, 0.0]),
                hidden_last=np.array([1.0, 0.0]),
                hidden_all=[np.array([1.0, 0.0])],
            ),
            (3, 1): StepOutput(
                probs=np.array([0.1, 0.1, 0.8, 0.0]), hidden_last=np.array([0.0, 1.0])
            ),
        }

    def test_forward_is_exact_lookup(self):
        backend = ScriptedBackend(small_info(), self.table())
        out = backend.forward([3, 1])
        np.testing.assert_array_equal(out.probs, [0.1, 0.1, 0.8, 0.0])
        np.testing.assert_array_equal(out.hidden_last, [0.0, 1.0])
        assert out.hidden_all is None

    def test_missing_prefix(self):
        backend = ScriptedBackend(small_info(), self.table())
        with pytest.raises(MissingEntryError):
            backend.forward([0, 0])

    def test_unnormalized_probs_rejected_at_construction(self):
        bad = {(1,): StepOutput(probs=np.array([0.5, 0.2, 0.1, 0.0]), hidden_last=np.array([1.0, 0.0]))}
        with pytest.raises(ValidationError):
            ScriptedBackend(small_info(), bad)

    def test_negative_probs_rejected(self):
        bad = {(1,): StepOutput(probs=np.array([1.2, -0.1, -0.1, 0.0]), hidden_last=np.array([1.0, 0.0]))}
        with pytest.raises(ValidationError):
            ScriptedBackend(small_info(), bad)

    def test_out_of_vocabulary_prefix_rejected(self):
        bad = {(1, 4): self.table()[(1,)]}
        with pytest.raises(ValidationError, match=r"table prefix \[1, 4\] contains out-of-vocabulary ids"):
            ScriptedBackend(small_info(), bad)

    def test_wrong_hidden_dim_rejected(self):
        bad = {(1,): StepOutput(probs=np.array([0.7, 0.2, 0.1, 0.0]), hidden_last=np.array([1.0, 0.0, 0.0]))}
        with pytest.raises(ValidationError):
            ScriptedBackend(small_info(), bad)

    def test_hidden_all_only_when_requested(self):
        backend = ScriptedBackend(small_info(), self.table())
        assert backend.forward([1]).hidden_all is None
        assert len(backend.forward([1], want_all_hidden=True).hidden_all) == 1

    def test_table_arrays_are_read_only_copies(self):
        # Neither the caller's arrays nor an answer can be written into a
        # later answer.
        table = self.table()
        backend = ScriptedBackend(small_info(), table)
        table[(1,)].probs[0] = 0.0
        table[(1,)].hidden_last[0] = 5.0
        out = backend.forward([1], want_all_hidden=True)
        for a in (out.probs, out.hidden_last, out.hidden_all):
            with pytest.raises(ValueError, match="read-only"):
                a[0] += 1
        again = backend.forward([1], want_all_hidden=True)
        np.testing.assert_array_equal(again.probs, [0.7, 0.2, 0.1, 0.0])
        np.testing.assert_array_equal(again.hidden_last, [1.0, 0.0])
        np.testing.assert_array_equal(again.hidden_all, [[1.0, 0.0]])

    def test_hidden_all_requested_but_absent(self):
        backend = ScriptedBackend(small_info(), self.table())
        with pytest.raises(MissingEntryError, match="hidden_all"):
            backend.forward([3, 1], want_all_hidden=True)

    def test_out_of_vocab_token(self):
        backend = ScriptedBackend(small_info(), self.table())
        with pytest.raises(VocabError):
            backend.forward([4 + 5])

    def test_empty_prefix(self):
        backend = ScriptedBackend(small_info(), self.table())
        with pytest.raises(ArgumentError):
            backend.forward([])

    @pytest.mark.parametrize("bad", [1.5, 1.0, "a", True, None])
    def test_non_integer_prefix_id_rejected(self, bad):
        # A float must not be truncated into another prefix's key.
        out = self.table()[(1,)]
        with pytest.raises(ValidationError, match="prefix id"):
            ScriptedBackend(small_info(), {(bad,): out})
        assert list(ScriptedBackend(small_info(), {(np.int64(1),): out})._table) == [(1,)]


class TestTinyTransformer:
    def test_heads_must_divide_hidden_dim(self):
        with pytest.raises(ArgumentError):
            TinyTransformer(seed=1, vocab_size=8, hidden_dim=10, layers=1, heads=3)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("seed", 42.5, "seed must be an integer, got 42.5"),
            ("seed", -1, "seed must be >= 0, got -1"),
            ("seed", np.bool_(True), f"seed must be an integer, got {np.bool_(True)!r}"),
            ("heads", True, "heads must be an integer, got True"),
            ("layers", 2.0, "layers must be an integer, got 2.0"),
            ("max_seq_len", 2.5, "max_seq_len must be an integer, got 2.5"),
            ("max_seq_len", -1, "max_seq_len must be >= 1, got -1"),
            ("max_seq_len", 0, "max_seq_len must be >= 1, got 0"),
        ],
    )
    def test_sizes_are_checked_integers(self, name, value, message):
        with pytest.raises(ArgumentError) as err:
            TinyTransformer(**{**TINY_ARGS, name: value})
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("vocab_size", "64", "vocab_size must be an integer, got '64'"),
            ("vocab_size", 64.0, "vocab_size must be an integer, got 64.0"),
            ("vocab_size", True, "vocab_size must be an integer, got True"),
            ("vocab_size", 1, "vocab_size must be >= 2, got 1"),
            ("hidden_dim", 16.0, "hidden_dim must be an integer, got 16.0"),
            ("hidden_dim", None, "hidden_dim must be an integer, got None"),
            ("hidden_dim", 0, "hidden_dim must be >= 1, got 0"),
        ],
    )
    def test_vocab_size_and_hidden_dim_are_checked_before_use(self, name, value, message):
        # Before BackendInfo sees them, `vocab_size - 1` and `hidden_dim % heads`
        # run: a string or a float must be refused by name first.
        with pytest.raises(ArgumentError) as err:
            TinyTransformer(**{**TINY_ARGS, name: value})
        assert str(err.value) == message

    def test_a_numpy_integer_seed_builds_the_same_model(self, tiny_backend):
        other = TinyTransformer(**{**TINY_ARGS, "seed": np.int64(TINY_ARGS["seed"])})
        assert np.array_equal(other.forward([3, 1]).probs, tiny_backend.forward([3, 1]).probs)

    def test_probs_normalized(self, tiny_backend):
        for prefix in ([0], [5, 6, 7], list(range(20))):
            out = tiny_backend.forward(prefix)
            assert abs(float(out.probs.sum()) - 1.0) < 1e-6
            assert np.all(out.probs >= 0)

    def test_same_prefix_twice_bitwise_identical(self, tiny_backend):
        a = tiny_backend.forward([3, 1], want_all_hidden=True)
        b = tiny_backend.forward([3, 1], want_all_hidden=True)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.hidden_last, b.hidden_last)
        assert all(np.array_equal(x, y) for x, y in zip(a.hidden_all, b.hidden_all))

    def test_same_seed_same_model(self, tiny_backend):
        other = TinyTransformer(**TINY_ARGS)
        a = other.forward([3, 1, 4])
        b = tiny_backend.forward([3, 1, 4])
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.hidden_last, b.hidden_last)

    def test_different_seed_differs(self):
        a = TinyTransformer(**{**TINY_ARGS, "seed": 1}).forward([3, 1])
        b = TinyTransformer(**{**TINY_ARGS, "seed": 2}).forward([3, 1])
        assert not np.array_equal(a.probs, b.probs)

    def test_vocab_error(self, tiny_backend):
        with pytest.raises(VocabError):
            tiny_backend.forward([64 + 5])

    def test_weights_are_read_only(self, tiny_backend):
        m = tiny_backend
        weights = [m._tok_emb, m._pos_emb]
        weights += [w for blk in m._blocks for w in blk.values()]
        assert [sorted(blk) for blk in m._blocks] == [["w1", "w2", "wo", "wqkv"]] * TINY_ARGS["layers"]
        assert len(weights) == 2 + 4 * TINY_ARGS["layers"]
        # No array on the model lies outside the list.
        assert all(any(a is w for w in weights) for a in vars(m).values() if isinstance(a, np.ndarray))
        for w in weights:
            with pytest.raises(ValueError, match="read-only"):
                w += 0.0

    def test_eou_convention_is_last_id(self, tiny_backend):
        assert tiny_backend.info.eou_token_id == 63

    def test_hidden_all_matches_per_position_forwards(self, tiny_backend):
        # Causality: position i's final state only sees tokens <= i, so it
        # must equal the last hidden of the truncated prefix.
        prefix = [5, 9, 13, 2, 40]
        out = tiny_backend.forward(prefix, want_all_hidden=True)
        assert len(out.hidden_all) == len(prefix)
        for i in range(len(prefix)):
            single = tiny_backend.forward(prefix[: i + 1])
            np.testing.assert_allclose(out.hidden_all[i], single.hidden_last, atol=1e-9)


class TestForwardCandidates:
    def test_single_candidate_definition(self, tiny_backend):
        # A session probe: within 1e-12 of the definition, not bitwise.
        got = tiny_backend.forward_candidates([2], [5])
        np.testing.assert_allclose(got[0], tiny_backend.forward([2, 5]).hidden_last, rtol=0, atol=1e-12)

    def test_matches_sequential_forwards(self, tiny_backend):
        got = tiny_backend.forward_candidates([2], [5, 7, 9])
        for h, cand in zip(got, [5, 7, 9]):
            expected = tiny_backend.forward([2, cand]).hidden_last
            np.testing.assert_allclose(h, expected, rtol=0, atol=1e-12)

    def test_empty_candidates(self, tiny_backend):
        with pytest.raises(ArgumentError):
            tiny_backend.forward_candidates([2], [])

    def test_checks_each_list_once(self, tiny_backend, monkeypatch):
        # The candidates first, then open's prefix, then the probe's candidates.
        kinds = []
        check = Backend._check_tokens

        def counted(self, tokens, kind):
            kinds.append(kind)
            return check(self, tokens, kind)

        monkeypatch.setattr(Backend, "_check_tokens", counted)
        tiny_backend.forward_candidates([1, 2, 3], [4, 5, 6])
        assert kinds == ["candidate", "token", "candidate"]

    def test_scripted_agrees_with_sequential(self):
        backend, _ = random_scripted(seed=11)
        prefix = [1, 2]
        got = backend.forward_candidates(prefix, [0, 1, 3])
        # The base session's probe: one forward per candidate, so bitwise.
        for h, cand in zip(got, [0, 1, 3]):
            assert np.array_equal(h, backend.forward(prefix + [cand]).hidden_last)


def _outcome(call):
    """What a call gives: its output, or its error's type and message."""
    try:
        return call()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def _mask(kind: str, t: int, m: int) -> np.ndarray:
    """An attention mask over t columns: causal over t rows, or a probe's m
    rows, each seeing the t - m cached columns and itself."""
    if kind == "causal":
        return np.tri(t, dtype=bool)
    mask = np.eye(m, t, t - m, dtype=bool)
    mask[:, : t - m] = True
    return mask


class TestBatchedEncoder:
    """The kernels are bitwise the formulas they replace, and a candidate probe
    agrees with one forward per candidate."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 4),
        cols=st.integers(1, 300),  # crosses numpy's 8- and 128-element pairwise-sum blocks
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_layer_norm_is_the_mean_var_formula(self, seed, rows, cols, scale):
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.normal(rng.normal(), scale, size=(rows, cols))
        eps = 1e-5
        old = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + eps)
        assert np.array_equal(_layer_norm(x, eps), old)

    @given(
        seed=st.integers(0, 2**32 - 1),
        lead=st.lists(st.integers(1, 3), max_size=2),
        t=st.integers(1, 40),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
        kind=st.sampled_from(["causal", "probe"]),
        m=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_masked_softmax_is_the_softmax_of_the_masked_scores(self, seed, lead, t, scale, kind, m):
        rng = np.random.Generator(np.random.PCG64(seed))
        mask = _mask(kind, t, min(m, t))
        scores = rng.normal(0.0, scale, size=(*lead, *mask.shape))
        masked = _softmax(scores + np.where(mask, 0.0, -np.inf))
        assert np.array_equal(_masked_softmax(scores, mask), masked)

    @given(
        seed=st.integers(0, 2**32 - 1),
        lead=st.lists(st.integers(1, 2), max_size=1),
        t=st.integers(120, 170),  # row sums cross numpy's 128-element pairwise-sum block
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
        kind=st.sampled_from(["causal", "probe"]),
        m=st.integers(1, 8),
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_masked_softmax_is_the_softmax_of_the_masked_scores_on_long_rows(
        self, seed, lead, t, scale, kind, m
    ):
        rng = np.random.Generator(np.random.PCG64(seed))
        mask = _mask(kind, t, m)
        scores = rng.normal(0.0, scale, size=(*lead, *mask.shape))
        masked = _softmax(scores + np.where(mask, 0.0, -np.inf))
        assert np.array_equal(_masked_softmax(scores, mask), masked)

    @given(
        seed=st.integers(0, 1000),
        heads=st.integers(1, 4),
        head_dim=st.integers(1, 8),
        r=st.integers(1, 24),
        c=st.integers(0, 140),
        probe=st.booleans(),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_attention_kernel_is_the_textbook_formula(self, seed, heads, head_dim, r, c, probe):
        """softmax(Q K^T / sqrt(head_dim) + M) V, head by head, then W_o: bitwise
        for a causal block over no cache, and within 1e-12 for a probe, each
        row over [cache; row]. The kernel writes the rows' keys and values
        into the last r positions of the one array and leaves the cache."""
        d = heads * head_dim
        model = TinyTransformer(seed, 8, d, 1, heads)
        blk = model._blocks[0]
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.normal(size=(r, d))
        past = rng.normal(size=(2, heads, c if probe else 0, head_dim))
        kv = np.full((2, heads, past.shape[-2] + r, head_dim), np.nan)
        kv[:, :, : past.shape[-2]] = past
        mask = _mask("probe", c + r, r) if probe else np.tri(r, dtype=bool)
        got = model._attend(x, 0, kv, mask)

        q, k, v = (x @ blk["wqkv"]).reshape(r, 3, heads, head_dim).transpose(1, 2, 0, 3)
        assert np.array_equal(kv[:, :, : past.shape[-2]], past)
        assert np.array_equal(kv[:, :, past.shape[-2] :], np.stack([k, v]))
        out = np.empty((r, heads, head_dim))
        for h in range(heads):
            if probe:
                for i in range(r):
                    keys = np.concatenate([past[0, h], k[h, i : i + 1]])
                    values = np.concatenate([past[1, h], v[h, i : i + 1]])
                    out[i, h] = _softmax(q[h, i] @ keys.T / np.sqrt(head_dim)) @ values
            else:
                scores = q[h] @ k[h].T / np.sqrt(head_dim)
                out[:, h] = _softmax(scores + np.triu(np.full((r, r), -np.inf), k=1)) @ v[h]
        want = out.reshape(r, d) @ blk["wo"]
        if probe:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        else:
            assert np.array_equal(got, want)

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 4),
        cols=st.integers(1, 300),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_gelu_is_the_tanh_formula(self, seed, rows, cols, scale):
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.normal(0.0, scale, size=(rows, cols))
        before = x.copy()
        old = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x))))
        assert np.array_equal(_gelu(x), old)
        assert np.array_equal(x, before)

    @given(
        seed=st.integers(0, 1000),
        layers=st.integers(1, 3),
        heads=st.integers(1, 4),
        head_dim=st.integers(1, 8),
        vocab=st.integers(2, 200),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_forward_candidates_matches_one_forward_each(self, seed, layers, heads, head_dim, vocab, data):
        model = TinyTransformer(seed, vocab, heads * head_dim, layers, heads, max_seq_len=141)
        token = st.integers(0, vocab - 1)
        prefix = data.draw(st.lists(token, max_size=140))
        candidates = data.draw(st.lists(token, min_size=1, max_size=8))
        got = model.forward_candidates(prefix, candidates)
        assert len(got) == len(candidates)
        for h, c in zip(got, candidates):
            np.testing.assert_allclose(h, model.forward(prefix + [c]).hidden_last, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "prefix, candidates",
        [
            ([2], []),  # empty candidates
            ([2], [5, 64]),  # out-of-vocabulary candidate
            ([2], [5, 2.5]),  # non-integer candidate
            ([], [5, 7]),  # empty prefix: each sequence is the candidate alone
            ([2, 64], [5]),  # bad prefix token
            ([2, 70], [99]),  # bad prefix token and bad candidate
            ([1] * 8, [5]),  # prefix at max_seq_len
            ([64] + [1] * 8, [5]),  # bad token in a too-long prefix
            ([1] * 7, [5, 6]),  # one below max_seq_len: fits
        ],
    )
    def test_forward_candidates_error_parity(self, prefix, candidates):
        model = TinyTransformer(**TINY_ARGS, max_seq_len=8)
        got = _outcome(lambda: model.forward_candidates(prefix, candidates))
        want = _outcome(lambda: Session(model, list(prefix)).probe(candidates))
        if isinstance(want, tuple):  # the same error type and message
            assert got == want
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
