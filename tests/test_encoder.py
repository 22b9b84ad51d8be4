"""Tokenization, deterministic encoding, pooling, and attention extraction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdglab.diffusion import Chain, SigmaSchedule, sample, sample_batch
from cdglab.encoder import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    PROMPT_STATE_CAP,
    EncoderParams,
    TokenSequence,
    TokenType,
    ToyTextEncoder,
    tokenize,
)
from cdglab.errors import InvalidInputError, PromptTooLongError
from cdglab.guidance import GuidanceConfig, GuidanceMode

from oracles import (
    attention_maps,
    block_logits,
    block_static,
    forward,
    replaced,
    state_weights,
)

words_strategy = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8),
    min_size=0,
    max_size=14,
)


class TestParams:
    def test_head_divisibility(self):
        with pytest.raises(InvalidInputError):
            EncoderParams(d_model=30, n_heads=4)

    def test_minimum_sizes(self):
        with pytest.raises(InvalidInputError):
            EncoderParams(seq_len=3)
        with pytest.raises(InvalidInputError):
            EncoderParams(n_blocks=0)
        with pytest.raises(InvalidInputError):
            EncoderParams(vocab_size=3)


class TestTokenize:
    def test_empty_prompt_all_ctxagg(self, params):
        seq = tokenize("", params)
        assert len(seq) == params.seq_len
        assert all(t is TokenType.CTX_AGG for t in seq.types)
        assert seq.ids[0] == BOS_ID and seq.ids[1] == EOS_ID
        assert all(i == PAD_ID for i in seq.ids[2:])

    def test_four_word_prompt_type_counts(self):
        p = EncoderParams(seq_len=8)
        seq = tokenize("a man is cooking", p)
        content = seq.positions_of(TokenType.CONTENT)
        ctxagg = seq.positions_of(TokenType.CTX_AGG)
        assert len(content) == 4 and len(ctxagg) == 4
        assert content == [1, 2, 3, 4]

    def test_repeated_word_hashes_identically(self, params):
        seq = tokenize("x x", params)
        assert seq.ids[1] == seq.ids[2]

    def test_case_insensitive(self, params):
        assert tokenize("Cat", params).ids == tokenize("cat", params).ids

    def test_over_long_prompt_rejected(self, params):
        with pytest.raises(PromptTooLongError):
            tokenize(" ".join(["w"] * (params.seq_len - 1)), params)

    @settings(max_examples=60, deadline=None)
    @given(words=words_strategy)
    def test_type_partition(self, params, words):
        seq = tokenize(" ".join(words), params)
        assert len(seq.ids) == len(seq.types) == len(seq.texts) == params.seq_len
        assert seq.types[0] is TokenType.CTX_AGG
        content = seq.positions_of(TokenType.CONTENT)
        assert len(content) == len(words)
        # everything after the last word is CtxAgg (EOS then PAD)
        last = max(content, default=0)
        assert all(t is TokenType.CTX_AGG for t in seq.types[last + 1 :])


class TestEncode:
    def test_determinism(self, encoder, params):
        a = encoder.encode(tokenize("a man is cooking", params))
        b = encoder.encode(tokenize("a man is cooking", params))
        np.testing.assert_array_equal(a, b)

    def test_fresh_encoder_matches(self, encoder, params, tokens):
        other = ToyTextEncoder(EncoderParams())
        np.testing.assert_array_equal(encoder.encode(tokens), other.encode(tokens))

    def test_one_word_difference_changes_rows(self, encoder, params):
        a = encoder.encode(tokenize("a man is cooking", params))
        b = encoder.encode(tokenize("a man is painting", params))
        assert np.abs(a - b).max() > 0

    def test_null_condition_is_empty_prompt(self, encoder, params):
        null = encoder.null_condition()
        direct = encoder.encode(tokenize("", params))
        np.testing.assert_array_equal(null, direct)

    def test_null_condition_is_read_only(self, encoder):
        null = encoder.null_condition()
        with pytest.raises(ValueError):
            null[0, 0] = 0.0
        assert encoder.null_condition() is null

    def test_length_mismatch_rejected(self, encoder):
        small = tokenize("", EncoderParams(seq_len=8))
        with pytest.raises(InvalidInputError):
            encoder.encode(small)

    @pytest.mark.parametrize(
        "call",
        [
            lambda enc, t: enc.encode_stack([t], [1], 8),
            lambda enc, t: enc.prompt_state(t, 1, 8),
        ],
        ids=["encode_stack", "prompt_state"],
    )
    def test_length_mismatch_rejected_by_attention(self, params, call):
        encoder = ToyTextEncoder(params)
        for seq_len in (8, params.seq_len + 4):
            with pytest.raises(InvalidInputError, match="length"):
                call(encoder, tokenize("a dog", EncoderParams(seq_len=seq_len)))

    @pytest.mark.parametrize("bad_id", [-1, 256, 10**6])
    def test_out_of_vocabulary_id_rejected(self, params, bad_id):
        encoder = ToyTextEncoder(params)
        good = tokenize("a man is cooking", params)
        ids = (good.ids[0], bad_id) + good.ids[2:]
        bad = TokenSequence(ids=ids, types=good.types, texts=good.texts)
        for call in (
            encoder.encode,
            lambda t: encoder.encode_stack([t], [1], 8),
            lambda t: encoder.prompt_state(t, 1, 8),
        ):
            with pytest.raises(InvalidInputError, match="token id"):
                call(bad)


class TestPool:
    def test_identical_rows(self, encoder, params):
        row = np.random.default_rng(0).normal(size=params.d_model)
        pooled = encoder.pool(np.tile(row, (params.seq_len, 1)), 8)
        expected = row @ encoder._pool_maps[8]
        np.testing.assert_allclose(pooled, expected, atol=1e-12)

    def test_stack_pools_like_its_rows(self, encoder, params):
        prompts = ("a red cat", "the dog runs home", "")
        stack = np.array([encoder.encode(tokenize(p, params)) for p in prompts])
        np.testing.assert_array_equal(encoder.pool(stack, 8), [encoder.pool(c, 8) for c in stack])

    def test_null_pool_defined(self, encoder):
        out = encoder.pool(encoder.null_condition(), 8)
        assert out.shape == (8,) and np.isfinite(out).all()

    def test_sensitive_to_single_row_replacement(self, encoder, params, tokens):
        c = encoder.encode(tokens)
        null = encoder.null_condition()
        changed = c.copy()
        changed[1] = null[1]  # first content row
        assert np.abs(encoder.pool(changed, 8) - encoder.pool(c, 8)).max() > 0


class TestAttention:
    def test_maps_row_stochastic_positive(self, encoder, params, tokens):
        for attn in attention_maps(encoder, tokens):
            assert attn.shape == (params.n_heads, params.seq_len, params.seq_len)
            assert (attn > 0).all()
            np.testing.assert_allclose(attn.sum(axis=2), 1.0, atol=1e-9)

    def test_block_extraction_matches_forward(self, params, tokens):
        encoder = ToyTextEncoder(params)  # fresh cache
        full = attention_maps(encoder, tokens)
        for b in range(params.n_blocks):
            np.testing.assert_allclose(block_attention(encoder, tokens, b), full[b], atol=1e-12)

    def test_query_bias_changes_map(self, encoder, params, tokens):
        # the query bias is the prompt state's latent-dependent logit shift
        base = block_attention(encoder, tokens, 1)
        weights = state_weights(encoder.prompt_state(tokens, 1, 8), np.ones(8), 1.0, 0.5)
        biased = weights / weights.sum(axis=2, keepdims=True)
        assert np.abs(base - biased).max() > 0
        np.testing.assert_allclose(biased.sum(axis=2), 1.0, atol=1e-9)

    def test_bad_block_rejected(self, encoder, params, tokens):
        with pytest.raises(InvalidInputError):
            encoder.prompt_state(tokens, params.n_blocks, 8)
        with pytest.raises(InvalidInputError):
            encoder.encode_stack([tokens], [-1], 8)

    def test_cached_logits_bitwise_stable(self, encoder, params, tokens):
        # a stored state and one built again by another walk
        first = encoder.prompt_state(tokens, 1, 8)
        second = ToyTextEncoder(params).encode_stack([tokens], [1], 8)[1][tokens.ids, 1, 8]
        np.testing.assert_array_equal(first.static, second.static)
        np.testing.assert_array_equal(first.shift_map, second.shift_map)


def distinct_prompts(params, count: int) -> list:
    """Token sequences of `count` prompts with pairwise different token ids."""
    seen = {}
    i = 0
    while len(seen) < count:
        t = tokenize(f"prompt number {i}", params)
        seen.setdefault(t.ids, t)
        i += 1
    return list(seen.values())


def block_attention(encoder, tokens, block: int) -> np.ndarray:
    """The block's attention (H, N, N) as the CLI ranks tokens from it: the
    prompt state's static map, each row normalized."""
    static = encoder.prompt_state(tokens, block, 8).static
    return static / static.sum(axis=-1, keepdims=True)


def record_taps(encoder, monkeypatch) -> dict[tuple, tuple]:
    """The logits and scaled K^T each prompt state the encoder builds from
    now on is built from, by its (ids, block, d_x) key."""
    taps = {}
    build = encoder._build_state

    def recording(key, *arrays):
        taps[key] = arrays
        return build(key, *arrays)

    monkeypatch.setattr(encoder, "_build_state", recording)
    return taps


def count_builds(encoder, monkeypatch) -> list[tuple]:
    """The (ids, block, d_x) keys of the prompt states the encoder builds from now on, in order."""
    built = []
    build = encoder._build_state
    monkeypatch.setattr(
        encoder, "_build_state", lambda key, *arrays: built.append(key) or build(key, *arrays)
    )
    return built


class TestPromptState:
    def test_reused_across_calls(self, params, tokens):
        encoder = ToyTextEncoder(params)
        assert encoder.prompt_state(tokens, 1, 8) is encoder.prompt_state(tokens, 1, 8)
        assert encoder.prompt_state(tokens, 1, 8) is not encoder.prompt_state(tokens, 0, 8)

    def test_static_weights_read_only(self, encoder, tokens):
        state = encoder.prompt_state(tokens, 1, 8)
        with pytest.raises(ValueError):
            state_weights(state, np.zeros(8), 1.0, 0.0)[0, 0, 0] = 1.0

    def test_store_stays_at_cap(self, params, model):
        # one chain per new prompt, as a long-lived service samples them
        encoder = ToyTextEncoder(params)
        schedule = SigmaSchedule.log_spaced(3, 10.0, 0.01)
        cdg = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5)
        for i, t in enumerate(distinct_prompts(params, PROMPT_STATE_CAP + 10)):
            sample(model, schedule, encoder, t, cdg, i)
        assert len(encoder._states) == PROMPT_STATE_CAP

    def test_batch_builds_each_state_once(self, params, model, monkeypatch):
        # more per-step chains than the store keeps, one prompt each
        encoder = ToyTextEncoder(params)
        built = count_builds(encoder, monkeypatch)
        cdg = GuidanceConfig(
            mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5,
            reuse_first_step_mask=False,
        )
        prompts = distinct_prompts(params, PROMPT_STATE_CAP + 1)
        runs = sample_batch(
            model, SigmaSchedule.log_spaced(4, 10.0, 0.01), encoder,
            [Chain(t, cdg, i) for i, t in enumerate(prompts)],
        )
        assert all(run.wpr_call_count == 4 for run in runs)
        assert sorted(built) == sorted((t.ids, 1, model.d_x) for t in prompts)

    def test_batch_builds_one_state_for_a_prompt_under_many_seeds(
        self, params, model, monkeypatch
    ):
        # each seed ranks the prompt at its own latent, under its own key,
        # and every key takes the one (prompt, block) state
        encoder = ToyTextEncoder(params)
        built = count_builds(encoder, monkeypatch)
        cdg = GuidanceConfig(
            mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5,
            reuse_first_step_mask=False,
        )
        tokens = tokenize("a man is cooking", params)
        runs = sample_batch(
            model, SigmaSchedule.log_spaced(4, 10.0, 0.01), encoder,
            [Chain(tokens, cdg, seed) for seed in range(5)],
        )
        assert all(run.wpr_call_count == 4 for run in runs)
        assert built == [(tokens.ids, cdg.lambda_block, model.d_x)]

    def test_batch_builds_each_state_once_across_ratios(self, params, model, monkeypatch):
        # every prompt at one ratio, then every prompt at another, as a sweep
        # orders them: by the second ratio the store has dropped the first
        # prompts' states, so only the call's own hold keeps them
        encoder = ToyTextEncoder(params)
        built = count_builds(encoder, monkeypatch)
        prompts = distinct_prompts(params, PROMPT_STATE_CAP + 1)
        configs = [
            GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=r)
            for r in (0.5, 1.5)
        ]
        runs = sample_batch(
            model, SigmaSchedule.log_spaced(4, 10.0, 0.01), encoder,
            [Chain(t, c, 0) for c in configs for t in prompts],
        )
        # the two ratios give different masks, so no chain stands in for another
        assert replaced(prompts[0], runs[0].masks[0]).k_ctxagg == 0
        assert replaced(prompts[0], runs[len(prompts)].masks[0]).k_ctxagg > 0
        assert sorted(built) == sorted((t.ids, 1, model.d_x) for t in prompts)

    def test_least_recently_used_dropped_first(self, params):
        encoder = ToyTextEncoder(params)
        prompts = distinct_prompts(params, PROMPT_STATE_CAP + 1)
        first = encoder.prompt_state(prompts[0], 1, 8)
        second = encoder.prompt_state(prompts[1], 1, 8)
        for t in prompts[2:-1]:
            encoder.prompt_state(t, 1, 8)
        assert encoder.prompt_state(prompts[0], 1, 8) is first  # now most recent
        encoder.prompt_state(prompts[-1], 1, 8)  # evicts prompts[1]
        assert encoder.prompt_state(prompts[0], 1, 8) is first
        assert encoder.prompt_state(prompts[1], 1, 8) is not second


def one_by_one_at(params, rows, d_x: int = 8) -> ToyTextEncoder:
    """A fresh encoder after one prompt_state call per (tokens, block) row, in order."""
    encoder = ToyTextEncoder(params)
    for t, block in rows:
        encoder.prompt_state(t, block, d_x)
    return encoder


def one_by_one(params, tokens, block: int, d_x: int = 8) -> ToyTextEncoder:
    """A fresh encoder after one prompt_state call per sequence at block, in order."""
    return one_by_one_at(params, [(t, block) for t in tokens], d_x)


def assert_same_store(encoder: ToyTextEncoder, other: ToyTextEncoder) -> None:
    """Equal keys in equal least-recently-used order, with bit-equal states."""
    assert list(encoder._states) == list(other._states)
    for key, state in encoder._states.items():
        np.testing.assert_array_equal(state.static, other._states[key].static)
        np.testing.assert_array_equal(state.shift_map, other._states[key].shift_map)


class TestWalk:
    @pytest.mark.parametrize("block", [0, 1])
    def test_one_sequence_is_the_reference_arithmetic(self, params, monkeypatch, block):
        encoder = ToyTextEncoder(params)
        taps = record_taps(encoder, monkeypatch)
        for t in distinct_prompts(params, 3) + [tokenize("", params)]:
            hidden, _ = forward(encoder, t)
            np.testing.assert_array_equal(encoder.encode(t), hidden[-1])
            encoder.prompt_state(t, block, 8)
            reference = block_logits(encoder, hidden[block], block)
            for got, want in zip(taps[t.ids, block, 8], reference):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("size", [1, 2, 9])
    @pytest.mark.parametrize("block", [0, 1])
    def test_stack_equals_one_by_one_calls(self, params, monkeypatch, size, block):
        prompts = distinct_prompts(params, size)
        encoder = ToyTextEncoder(params)
        built = count_builds(encoder, monkeypatch)
        stacked, states = encoder.encode_stack(prompts, [block] * size, 8)
        assert stacked.shape == (size, params.seq_len, params.d_model)
        assert built == [(t.ids, block, 8) for t in prompts]
        # the store's own states, in its order
        assert list(states) == list(encoder._states)
        assert all(state is encoder._states[key] for key, state in states.items())
        for t, row in zip(prompts, stacked):
            np.testing.assert_array_equal(row, encoder.encode(t))
            np.testing.assert_array_equal(
                states[t.ids, block, 8].static, block_static(encoder, t, block)
            )
        assert_same_store(encoder, one_by_one(params, prompts, block))

    def test_rows_at_several_blocks_in_one_walk(self, params, monkeypatch):
        # a prompt at two blocks, one at block 0 only, and one at none
        a, b, c = distinct_prompts(params, 3)
        rows = [(a, 1), (b, 0), (c, None), (a, 0)]
        encoder = ToyTextEncoder(params)
        built = count_builds(encoder, monkeypatch)
        stacked, states = encoder.encode_stack(*zip(*rows), 8)
        ranked = [(t, block) for t, block in rows if block is not None]
        keys = [(t.ids, block, 8) for t, block in ranked]
        assert sorted(built) == sorted(keys) and list(states) == keys
        for (t, _), row in zip(rows, stacked):
            np.testing.assert_array_equal(row, encoder.encode(t))
        assert_same_store(encoder, one_by_one_at(params, ranked))

    def test_without_a_block_builds_no_state(self, params, monkeypatch):
        prompts = distinct_prompts(params, 3)
        encoder = ToyTextEncoder(params)
        built = count_builds(encoder, monkeypatch)
        stacked, states = encoder.encode_stack(prompts, [None] * 3, 8)
        assert built == [] and states == {} and encoder._states == {}
        np.testing.assert_array_equal(stacked, [encoder.encode(t) for t in prompts])

    def test_repeated_sequence_built_once(self, params, monkeypatch):
        a, b = distinct_prompts(params, 2)
        encoder = ToyTextEncoder(params)
        built = count_builds(encoder, monkeypatch)
        stacked, states = encoder.encode_stack([a, b, a], [1] * 3, 8)
        assert built == [(a.ids, 1, 8), (b.ids, 1, 8)]
        assert list(states) == built
        np.testing.assert_array_equal(stacked[2], stacked[0])
        assert_same_store(encoder, one_by_one(params, [a, b, a], 1))  # a most recent

    def test_stored_state_kept_and_made_most_recent(self, params, monkeypatch):
        a, b, c = distinct_prompts(params, 3)
        encoder = one_by_one(params, [a, b], 1)
        first = encoder._states[(a.ids, 1, 8)]
        built = count_builds(encoder, monkeypatch)
        _, states = encoder.encode_stack([a, c], [1, 1], 8)
        assert built == [(c.ids, 1, 8)]
        assert states[a.ids, 1, 8] is first and encoder._states[(a.ids, 1, 8)] is first
        assert list(encoder._states) == [(t.ids, 1, 8) for t in (b, a, c)]
        # a stack the store holds whole walks without building
        encoder.encode_stack([c, b], [1, 1], 8)
        assert built == [(c.ids, 1, 8)]
        assert list(encoder._states) == [(t.ids, 1, 8) for t in (a, c, b)]

    def test_stack_across_the_cap_evicts_as_one_by_one(self, params, monkeypatch):
        prompts = distinct_prompts(params, PROMPT_STATE_CAP + 3)
        before, rest = prompts[:10], prompts[10:]
        # prompts[1] is stored and moves up; prompts[0] is stored, then
        # evicted by the new rows, then wanted again at the end
        stack = [prompts[1]] + rest + [prompts[0], rest[0]]
        encoder = one_by_one(params, before, 1)
        built = count_builds(encoder, monkeypatch)
        stacked, states = encoder.encode_stack(stack, [1] * len(stack), 8)
        assert built == [(t.ids, 1, 8) for t in rest]
        assert len(encoder._states) == PROMPT_STATE_CAP
        # the call holds every row's state, more than the store keeps
        assert len(states) == len(rest) + 2
        assert_same_store(encoder, one_by_one(params, before + stack, 1))
        np.testing.assert_array_equal(stacked[-2], encoder.encode(prompts[0]))

    def test_empty_stack_rejected(self, params, tokens):
        encoder = ToyTextEncoder(params)
        with pytest.raises(InvalidInputError, match="empty"):
            encoder.encode_stack([], [], 8)
        with pytest.raises(InvalidInputError, match="one block a sequence"):
            encoder.encode_stack([tokens], [], 8)

    def test_bad_block_rejected(self, params, tokens):
        encoder = ToyTextEncoder(params)
        for block in (-1, params.n_blocks):
            with pytest.raises(InvalidInputError, match="out of range"):
                encoder.encode_stack([tokens], [block], 8)
