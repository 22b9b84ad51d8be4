"""Ratio mapping, stratified mask construction, and masked interpolation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdglab.degradation import (
    _masks,
    apply_mask,
    build_mask,
    map_ratio,
    mask_extent,
    needs_ranking,
    type_order,
)
from cdglab.encoder import EncoderParams, TokenType, tokenize
from cdglab.errors import InvalidInputError, InvalidRatioError
from conftest import encode_one
from oracles import replaced


def _importance(seed: int, n: int) -> np.ndarray:
    raw = np.random.default_rng(seed).uniform(0.01, 1.0, size=n)
    return raw / raw.sum()


# prompts of up to seq_len - 2 words, content words and punctuation mixed
PROMPTS = st.lists(
    st.sampled_from(["a", "man", "is", "cooking", "the", "red", ",", "."]), max_size=14
).map(" ".join)


def _extents(tokens, ratios) -> np.ndarray:
    """The (B, 2) extents of rows tokens[b] at ratios[b], as _masks takes them."""
    return np.array([mask_extent(t, r) for t, r in zip(tokens, ratios)])


class TestMapRatio:
    def test_default_boundary(self):
        r = map_ratio(1.0)
        assert r.r_content == 1.0 and r.r_ctxagg == 0.0

    def test_above_boundary(self):
        r = map_ratio(1.1)
        assert r.r_content == 1.0
        assert abs(r.r_ctxagg - 0.1) < 1e-15

    def test_zero(self):
        r = map_ratio(0.0)
        assert r.r_content == 0.0 and r.r_ctxagg == 0.0

    @pytest.mark.parametrize("bad", [-0.1, 2.0000001, float("nan"), float("inf")])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(InvalidRatioError):
            map_ratio(bad)

    @settings(max_examples=50, deadline=None)
    @given(r=st.floats(0.0, 2.0, allow_nan=False))
    def test_invariants(self, r):
        out = map_ratio(r)
        assert out.r_content == min(r, 1.0)
        assert out.r_ctxagg == max(r - 1.0, 0.0)


class TestBuildMask:
    def test_zero_ratio_all_kept(self, params, tokens):
        keep = build_mask(tokens, _importance(0, len(tokens)), map_ratio(0.0))
        assert keep.shape == (len(tokens),) and keep.dtype == bool
        assert keep.all()

    def test_full_ratio_all_replaced(self, params, tokens):
        keep = build_mask(tokens, _importance(0, len(tokens)), map_ratio(2.0))
        assert keep.shape == (len(tokens),) and keep.dtype == bool
        assert not keep.any()

    def test_example_eight_tokens(self):
        p = EncoderParams(seq_len=8)
        seq = tokenize("a man is cooking", p)
        imp = _importance(3, 8)
        mask = replaced(seq, build_mask(seq, imp, map_ratio(1.25)))
        assert mask.k_content == 4 and mask.k_ctxagg == 1
        content = seq.positions_of(TokenType.CONTENT)
        ctxagg = seq.positions_of(TokenType.CTX_AGG)
        assert set(content) <= set(mask.indices)
        replaced_ctx = set(mask.indices) - set(content)
        # the one replaced CtxAgg position carries that subset's top score
        top_ctx = max(ctxagg, key=lambda i: imp[i])
        assert replaced_ctx == {top_ctx}

    def test_boundary_matches_type_only_mask(self, params, tokens):
        for seed in range(5):
            keep = build_mask(tokens, _importance(seed, len(tokens)), map_ratio(1.0))
            np.testing.assert_array_equal(keep, build_mask(tokens, None, map_ratio(1.0)))

    def test_length_mismatch_rejected(self, params, tokens):
        with pytest.raises(InvalidInputError):
            build_mask(tokens, _importance(0, len(tokens) - 1), map_ratio(0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
    def test_non_finite_scores_rejected(self, params, tokens, bad, r):
        scores = _importance(0, len(tokens))
        scores[2] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            build_mask(tokens, scores, map_ratio(r))

    @pytest.mark.parametrize(
        "shape",
        [lambda n: (n, 2), lambda n: (n, n), lambda n: (1, n), lambda n: (2 * n,), lambda n: ()],
        ids=["N,2", "N,N", "1,N", "2N", "scalar"],
    )
    def test_scores_of_wrong_shape_rejected(self, params, tokens, shape):
        scores = np.ones(shape(len(tokens)))
        with pytest.raises(InvalidInputError, match="finite values, one per token"):
            build_mask(tokens, scores, map_ratio(0.5))

    def test_empty_prompt_content_k_zero(self, params):
        seq = tokenize("", params)
        keep = build_mask(seq, _importance(1, len(seq)), map_ratio(0.7))
        assert keep.all()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        r1=st.floats(0.0, 2.0, allow_nan=False),
        r2=st.floats(0.0, 2.0, allow_nan=False),
    )
    def test_nestedness_and_stratification(self, params, tokens, seed, r1, r2):
        if r1 > r2:
            r1, r2 = r2, r1
        imp = _importance(seed, len(tokens))
        m1 = replaced(tokens, build_mask(tokens, imp, map_ratio(r1)))
        m2 = replaced(tokens, build_mask(tokens, imp, map_ratio(r2)))
        assert set(m1.indices) <= set(m2.indices)
        content = set(tokens.positions_of(TokenType.CONTENT))
        for r, m in ((r1, m1), (r2, m2)):
            positions = set(m.indices)
            ratios = map_ratio(r)
            assert m.k_content == math.floor(ratios.r_content * len(content))
            if r <= 1.0:
                assert positions <= content
            if r >= 1.0:
                assert content <= positions

    @settings(max_examples=60, deadline=None)
    @given(
        prompt=PROMPTS,
        seed=st.integers(0, 10_000),
        r=st.floats(0.0, 2.0, allow_nan=False),
    )
    def test_unranked_mask_needs_no_scores(self, params, prompt, seed, r):
        # a type replaced wholly or not at all takes its positions without
        # ranking; only a partly replaced type needs the scores, and
        # needs_ranking says which extents have one
        tokens = tokenize(prompt, params)
        ratios = map_ratio(r)
        counts = [len(tokens.positions_of(t)) for t in (TokenType.CONTENT, TokenType.CTX_AGG)]
        ranked = build_mask(tokens, _importance(seed, len(tokens)), ratios)
        extent = mask_extent(tokens, ratios)
        whole = all(k in (0, n) for k, n in zip(extent, counts))
        assert needs_ranking(tokens, extent) is not whole
        if whole:
            np.testing.assert_array_equal(build_mask(tokens, None, ratios), ranked)
        else:
            with pytest.raises(InvalidInputError):
                build_mask(tokens, None, ratios)

    @settings(max_examples=60, deadline=None)
    @given(prompt=PROMPTS, data=st.data())
    def test_type_order_ties_go_to_lower_position(self, params, prompt, data):
        tokens = tokenize(prompt, params)
        # few distinct values, so most scores tie
        n = len(tokens)
        values = st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=n, max_size=n)
        scores = np.array(data.draw(values))
        for ttype in TokenType:
            # the within-type rule as its own oracle: a stable sort of the
            # type's negated scores, taken in position order
            pos = tokens.positions_of(ttype)
            order = np.argsort(-scores[np.asarray(pos, dtype=int)], kind="stable")
            assert type_order(tokens, scores, ttype) == [pos[j] for j in order]


class TestBuildMasks:
    """_masks, the degrade step's masking pass, ranks every keyed row at
    once; build_mask is its one-row form and masks the rows without a key."""

    @settings(max_examples=80, deadline=None)
    @given(
        prompts=st.lists(PROMPTS, min_size=1, max_size=6),
        data=st.data(),
    )
    def test_rows_match_build_mask(self, params, prompts, data):
        tokens = [tokenize(p, params) for p in prompts]
        n = len(tokens[0])
        n_keys = data.draw(st.integers(1, len(tokens)))
        # keys repeat, and a row without one needs no ranking: its ratio
        # replaces whole types or none
        keys = data.draw(st.lists(
            st.integers(-1, n_keys - 1), min_size=len(tokens), max_size=len(tokens)
        ))
        ratios = [
            map_ratio(data.draw(st.sampled_from(
                [0.0, 1.0, 2.0] if k < 0 else [0.0, 0.3, 0.5, 1.0, 1.25, 1.5, 2.0]
            )))
            for k in keys
        ]
        # few distinct values, so most scores tie
        scores = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n),
            min_size=n_keys, max_size=n_keys,
        )))
        got_masks = _masks(tokens, scores, keys, _extents(tokens, ratios))
        assert got_masks.shape == (len(tokens), n)
        for got, t, k, r in zip(got_masks, tokens, keys, ratios):
            want = build_mask(t, None if k < 0 else scores[k], r)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype == bool
            # the extent is the replaced count of each type
            assert replaced(t, got)[1:] == mask_extent(t, r)

    def test_unranked_rows_need_no_scores(self, params):
        tokens = [tokenize(p, params) for p in ("a man is cooking", "", "the red man")]
        for r in (0.0, 1.0):
            extents = _extents(tokens, [map_ratio(r)] * len(tokens))
            for got, t in zip(_masks(tokens, None, [-1] * 3, extents), tokens):
                np.testing.assert_array_equal(got, build_mask(t, None, map_ratio(r)))
        # "" has no content word, so R=0.5 replaces none of it; the other
        # prompts are replaced in part and need scores
        with pytest.raises(InvalidInputError, match="partial content"):
            _masks(tokens, None, [-1] * 3, _extents(tokens, [map_ratio(0.5)] * 3))
        with pytest.raises(InvalidInputError, match="partial ctx_agg"):
            _masks(tokens, None, [-1] * 3, _extents(tokens, [map_ratio(1.5)] * 3))
        # beside two ranked rows, an unranked one is still held to the rule
        scores = np.ones((2, len(tokens[0])))
        with pytest.raises(InvalidInputError, match="partial content"):
            _masks(tokens, scores, [0, 1, -1], _extents(tokens, [map_ratio(0.5)] * 3))


class TestApplyMask:
    def test_all_ones_keeps_condition(self, encoder, tokens):
        c = encode_one(encoder, tokens)
        null = encoder.null_condition()
        keep = build_mask(tokens, _importance(0, len(tokens)), map_ratio(0.0))
        np.testing.assert_array_equal(apply_mask(c[None], null, keep[None])[0], c)

    def test_all_zeros_yields_null(self, encoder, tokens):
        c = encode_one(encoder, tokens)
        null = encoder.null_condition()
        keep = build_mask(tokens, _importance(0, len(tokens)), map_ratio(2.0))
        np.testing.assert_array_equal(apply_mask(c[None], null, keep[None])[0], null)

    def test_single_replacement(self, encoder, tokens):
        c = encode_one(encoder, tokens)
        null = encoder.null_condition()
        keep = np.ones(len(tokens), dtype=bool)
        keep[2] = False
        out = apply_mask(c[None], null, keep[None])[0]
        np.testing.assert_array_equal(out[2], null[2])
        rest = [i for i in range(len(tokens)) if i != 2]
        np.testing.assert_array_equal(out[rest], c[rest])

    def test_idempotent(self, encoder, tokens):
        c = encode_one(encoder, tokens)
        null = encoder.null_condition()
        keep = build_mask(tokens, None, map_ratio(1.0))[None]
        once = apply_mask(c[None], null, keep)[0]
        twice = apply_mask(once[None], null, keep)[0]
        np.testing.assert_array_equal(once, twice)

    def test_shape_mismatch_rejected(self, encoder, tokens):
        c = encode_one(encoder, tokens)
        null = encoder.null_condition()
        with pytest.raises(InvalidInputError):
            apply_mask(c[None], null[:-1], build_mask(tokens, None, map_ratio(1.0))[None])

    def test_stack_matches_one_at_a_time(self, encoder, params):
        seqs = [tokenize(p, params) for p in ("a red cat", "the dog runs home")]
        masks = np.array([build_mask(t, None, map_ratio(1.0)) for t in seqs])
        conds = [encode_one(encoder, t) for t in seqs]
        null = encoder.null_condition()
        stack = apply_mask(np.array(conds), null, masks)
        for row, c, m in zip(stack, conds, masks):
            np.testing.assert_array_equal(row, apply_mask(c[None], null, m[None])[0])

    def test_stack_needs_one_mask_per_condition(self, encoder, tokens):
        c = encode_one(encoder, tokens)
        stack = np.array([c, c])
        null = encoder.null_condition()
        keep = build_mask(tokens, None, map_ratio(1.0))
        for conds, bits in ((stack, keep), (stack, keep[None]), (c, keep[None])):
            with pytest.raises(InvalidInputError):
                apply_mask(conds, null, bits)
