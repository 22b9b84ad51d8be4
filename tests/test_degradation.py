"""Ratio mapping, stratified mask construction, and masked interpolation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdglab.degradation import (
    apply_mask,
    build_mask,
    build_masks,
    map_ratio,
    mask_extent,
    type_order,
)
from cdglab.encoder import EncoderParams, TokenType, tokenize
from cdglab.errors import InvalidInputError, InvalidRatioError


def _importance(seed: int, n: int) -> np.ndarray:
    raw = np.random.default_rng(seed).uniform(0.01, 1.0, size=n)
    return raw / raw.sum()


# prompts of up to seq_len - 2 words, content words and punctuation mixed
PROMPTS = st.lists(
    st.sampled_from(["a", "man", "is", "cooking", "the", "red", ",", "."]), max_size=14
).map(" ".join)


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
        mask = build_mask(tokens, _importance(0, len(tokens)), map_ratio(0.0))
        assert mask.bits.all()
        assert mask.replaced_indices == ()

    def test_full_ratio_all_replaced(self, params, tokens):
        mask = build_mask(tokens, _importance(0, len(tokens)), map_ratio(2.0))
        assert not mask.bits.any()
        assert mask.replaced_indices == tuple(range(len(tokens)))

    def test_example_eight_tokens(self):
        p = EncoderParams(seq_len=8)
        seq = tokenize("a man is cooking", p)
        imp = _importance(3, 8)
        mask = build_mask(seq, imp, map_ratio(1.25))
        assert mask.k_content == 4 and mask.k_ctxagg == 1
        content = seq.positions_of(TokenType.CONTENT)
        ctxagg = seq.positions_of(TokenType.CTX_AGG)
        assert set(content) <= set(mask.replaced_indices)
        replaced_ctx = set(mask.replaced_indices) - set(content)
        # the one replaced CtxAgg position carries that subset's top score
        top_ctx = max(ctxagg, key=lambda i: imp[i])
        assert replaced_ctx == {top_ctx}

    def test_boundary_matches_type_only_mask(self, params, tokens):
        for seed in range(5):
            mask = build_mask(tokens, _importance(seed, len(tokens)), map_ratio(1.0))
            fast = build_mask(tokens, None, map_ratio(1.0))
            np.testing.assert_array_equal(mask.bits, fast.bits)
            assert mask.replaced_indices == fast.replaced_indices
            assert (mask.k_content, mask.k_ctxagg) == (fast.k_content, fast.k_ctxagg)

    def test_length_mismatch_rejected(self, params, tokens):
        with pytest.raises(InvalidInputError):
            build_mask(tokens, _importance(0, len(tokens) - 1), map_ratio(0.5))

    def test_empty_prompt_content_k_zero(self, params):
        seq = tokenize("", params)
        mask = build_mask(seq, _importance(1, len(seq)), map_ratio(0.7))
        assert mask.k_content == 0 and mask.bits.all()

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
        m1 = build_mask(tokens, imp, map_ratio(r1))
        m2 = build_mask(tokens, imp, map_ratio(r2))
        assert set(m1.replaced_indices) <= set(m2.replaced_indices)
        content = set(tokens.positions_of(TokenType.CONTENT))
        for r, m in ((r1, m1), (r2, m2)):
            replaced = set(m.replaced_indices)
            ratios = map_ratio(r)
            assert m.k_content == math.floor(ratios.r_content * len(content))
            if r <= 1.0:
                assert replaced <= content
            if r >= 1.0:
                assert content <= replaced

    @settings(max_examples=60, deadline=None)
    @given(
        prompt=PROMPTS,
        seed=st.integers(0, 10_000),
        r=st.floats(0.0, 2.0, allow_nan=False),
    )
    def test_unranked_mask_needs_no_scores(self, params, prompt, seed, r):
        # a type replaced wholly or not at all takes its positions without
        # ranking; only a partly replaced type needs the scores
        tokens = tokenize(prompt, params)
        ratios = map_ratio(r)
        counts = [len(tokens.positions_of(t)) for t in (TokenType.CONTENT, TokenType.CTX_AGG)]
        ranked = build_mask(tokens, _importance(seed, len(tokens)), ratios)
        if all(k in (0, n) for k, n in zip(mask_extent(tokens, ratios), counts)):
            unranked = build_mask(tokens, None, ratios)
            np.testing.assert_array_equal(unranked.bits, ranked.bits)
            assert unranked.replaced_indices == ranked.replaced_indices
            assert unranked.k_content == ranked.k_content
            assert unranked.k_ctxagg == ranked.k_ctxagg
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
    """build_masks ranks every keyed row at once; build_mask is its one-row
    form and masks the rows without a key."""

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
        got_masks = build_masks(tokens, scores, keys, ratios)
        assert len(got_masks) == len(tokens)
        for got, t, k, r in zip(got_masks, tokens, keys, ratios):
            want = build_mask(t, None if k < 0 else scores[k], r)
            np.testing.assert_array_equal(got.bits, want.bits)
            assert got.bits.dtype == want.bits.dtype
            assert got.replaced_indices == want.replaced_indices
            assert (got.k_content, got.k_ctxagg) == (want.k_content, want.k_ctxagg)

    def test_unranked_rows_need_no_scores(self, params):
        tokens = [tokenize(p, params) for p in ("a man is cooking", "", "the red man")]
        for r in (0.0, 1.0):
            ratios = [map_ratio(r)] * len(tokens)
            for got, t in zip(build_masks(tokens, None, [-1] * 3, ratios), tokens):
                want = build_mask(t, None, map_ratio(r))
                np.testing.assert_array_equal(got.bits, want.bits)
                assert got.replaced_indices == want.replaced_indices
        # "" has no content word, so R=0.5 replaces none of it; the other
        # prompts are replaced in part and need scores
        with pytest.raises(InvalidInputError, match="partial content"):
            build_masks(tokens, None, [-1] * 3, [map_ratio(0.5)] * 3)
        with pytest.raises(InvalidInputError, match="partial ctx_agg"):
            build_masks(tokens, None, [-1] * 3, [map_ratio(1.5)] * 3)
        # beside two ranked rows, an unranked one is still held to the rule
        scores = np.ones((2, len(tokens[0])))
        with pytest.raises(InvalidInputError, match="partial content"):
            build_masks(tokens, scores, [0, 1, -1], [map_ratio(0.5)] * 3)

    def test_score_shape_must_match_rows(self, params):
        tokens = [tokenize(p, params) for p in ("a man", "the red man")]
        with pytest.raises(InvalidInputError):
            build_masks(tokens, np.ones((2, len(tokens[0]) - 1)), [0, 1], [map_ratio(0.5)] * 2)


class TestApplyMask:
    def test_all_ones_keeps_condition(self, encoder, tokens):
        c = encoder.encode(tokens)
        null = encoder.null_condition()
        mask = build_mask(tokens, _importance(0, len(tokens)), map_ratio(0.0))
        np.testing.assert_array_equal(apply_mask(c[None], null, [mask])[0], c)

    def test_all_zeros_yields_null(self, encoder, tokens):
        c = encoder.encode(tokens)
        null = encoder.null_condition()
        mask = build_mask(tokens, _importance(0, len(tokens)), map_ratio(2.0))
        np.testing.assert_array_equal(apply_mask(c[None], null, [mask])[0], null)

    def test_single_replacement(self, encoder, tokens):
        c = encoder.encode(tokens)
        null = encoder.null_condition()
        mask = build_mask(tokens, None, map_ratio(1.0))
        mask.bits = np.ones_like(mask.bits)
        mask.bits[2] = 0
        out = apply_mask(c[None], null, [mask])[0]
        np.testing.assert_array_equal(out[2], null[2])
        rest = [i for i in range(len(tokens)) if i != 2]
        np.testing.assert_array_equal(out[rest], c[rest])

    def test_idempotent(self, encoder, tokens):
        c = encoder.encode(tokens)
        null = encoder.null_condition()
        mask = build_mask(tokens, None, map_ratio(1.0))
        once = apply_mask(c[None], null, [mask])[0]
        twice = apply_mask(once[None], null, [mask])[0]
        np.testing.assert_array_equal(once, twice)

    def test_shape_mismatch_rejected(self, encoder, tokens):
        c = encoder.encode(tokens)
        null = encoder.null_condition()
        with pytest.raises(InvalidInputError):
            apply_mask(c[None], null[:-1], [build_mask(tokens, None, map_ratio(1.0))])

    def test_stack_matches_one_at_a_time(self, encoder, params):
        seqs = [tokenize(p, params) for p in ("a red cat", "the dog runs home")]
        masks = [build_mask(t, None, map_ratio(1.0)) for t in seqs]
        conds = [encoder.encode(t) for t in seqs]
        null = encoder.null_condition()
        stack = apply_mask(np.array(conds), null, masks)
        for row, c, m in zip(stack, conds, masks):
            np.testing.assert_array_equal(row, apply_mask(c[None], null, [m])[0])

    def test_stack_needs_one_mask_per_condition(self, encoder, tokens):
        c = encoder.encode(tokens)
        stack = np.array([c, c])
        null = encoder.null_condition()
        mask = build_mask(tokens, None, map_ratio(1.0))
        with pytest.raises(TypeError):
            apply_mask(stack, null, mask)
        with pytest.raises(InvalidInputError):
            apply_mask(stack, null, [mask])
        with pytest.raises(InvalidInputError):
            apply_mask(c, null, [mask])
