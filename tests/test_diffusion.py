"""Analytic denoiser, score, schedules, and the guided sampling loop."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdglab import diffusion
from cdglab.degradation import map_ratio
from cdglab.diffusion import (
    DEFAULT_ATTENTION_BIAS_WEIGHT,
    Chain,
    GmmConditionalModel,
    SigmaSchedule,
    denoise,
    log_density,
    sample,
    sample_batch,
    score,
)
from cdglab.encoder import tokenize
from cdglab.errors import (
    AllHeadsFilteredError,
    DegenerateGraphError,
    InvalidInputError,
    NumericalError,
)
from cdglab.guidance import GuidanceConfig, GuidanceMode
from cdglab.importance import FusionConfig, stationary_scores
from oracles import block_static, replaced, state_weights

CFG = GuidanceConfig(mode=GuidanceMode.CFG, guidance_scale=3.0)
UNGUIDED = GuidanceConfig(mode=GuidanceMode.NONE, guidance_scale=1.0)


def recorded_solves(monkeypatch) -> list[tuple[int, ...]]:
    """The input shape of every stationary solve the sampler makes from now on."""
    shapes = []

    def recording(weights, **kwargs):
        shapes.append(np.shape(weights))
        return stationary_scores(weights, **kwargs)

    monkeypatch.setattr(diffusion, "stationary_scores", recording)
    return shapes


def record_walks(encoder, monkeypatch) -> list[tuple[list, list]]:
    """The (token ids, blocks) of every encode_stack call the encoder makes from now on."""
    walks = []
    walk = encoder.encode_stack

    def recording(tokens, blocks, d_x):
        walks.append(([t.ids for t in tokens], list(blocks)))
        return walk(tokens, blocks, d_x)

    monkeypatch.setattr(encoder, "encode_stack", recording)
    return walks


def head_variances(encoder, tokens) -> np.ndarray:
    """Each head's score variance at attention bias 0, where the attention,
    and so the variance, does not depend on the latent."""
    static = encoder.prompt_state(tokens, 1, 8).static
    return np.var(stationary_scores(static), axis=1)


def window_around_first_head(encoder, keep, drop) -> FusionConfig:
    """A variance filter keeping only head 0 of `keep`, and no head of `drop`,
    at attention bias 0."""
    v = head_variances(encoder, keep)[0]
    fusion = FusionConfig(v_min=v * (1 - 1e-9), v_max=v * (1 + 1e-9), enabled=True)
    v_drop = head_variances(encoder, drop)
    assert not ((v_drop >= fusion.v_min) & (v_drop <= fusion.v_max)).any()
    return fusion


def window_below_top_heads(encoder, prompts) -> FusionConfig:
    """A variance filter keeping some but not all heads of every prompt, at
    attention bias 0: it drops each prompt's highest-variance head."""
    per_prompt = [head_variances(encoder, t) for t in prompts]
    fusion = FusionConfig(
        v_min=0.0, v_max=min(v.max() for v in per_prompt) * (1 - 1e-9), enabled=True
    )
    for v in per_prompt:
        assert 0 < (v <= fusion.v_max).sum() < len(v)
    return fusion


def _single_component_model(d_x=2, d_c=3, spread=0.7) -> GmmConditionalModel:
    rng = np.random.default_rng(11)
    return GmmConditionalModel(
        maps=rng.normal(size=(1, d_x, d_c)),
        spreads=np.array([spread]),
        weights=np.array([1.0]),
    )


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidInputError):
            GmmConditionalModel(
                maps=np.zeros((2, 2, 2)),
                spreads=np.array([1.0, 1.0]),
                weights=np.array([0.6, 0.6]),
            )

    def test_spreads_positive(self):
        with pytest.raises(InvalidInputError):
            GmmConditionalModel(
                maps=np.zeros((1, 2, 2)),
                spreads=np.array([0.0]),
                weights=np.array([1.0]),
            )

    @pytest.mark.parametrize("bad", ["maps", "spreads", "weights"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameters_rejected(self, bad, value):
        params = dict(
            maps=np.zeros((2, 2, 2)), spreads=np.array([1.0, 1.0]), weights=np.array([0.5, 0.5])
        )
        params[bad] = params[bad].copy()
        params[bad].flat[0] = value
        with pytest.raises(InvalidInputError, match="finite"):
            GmmConditionalModel(**params)

    def test_random_constructor(self):
        m = GmmConditionalModel.random(3, 4, 5, seed=7)
        assert m.n_components == 3 and m.d_x == 4 and m.d_c == 5
        assert abs(m.weights.sum() - 1.0) < 1e-12


class TestSchedule:
    def test_log_spaced_shape(self, schedule):
        assert schedule.steps == 28
        assert schedule.sigmas[0] == 10.0 and schedule.sigmas[-1] == 0.0

    def test_monotone_required(self):
        with pytest.raises(InvalidInputError):
            SigmaSchedule(sigmas=(1.0, 2.0, 0.0))
        with pytest.raises(InvalidInputError):
            SigmaSchedule(sigmas=(1.0, 0.5))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SigmaSchedule.log_spaced(5, 10.0, float("nan")),
            lambda: SigmaSchedule.log_spaced(5, float("nan"), 0.01),
            lambda: SigmaSchedule(sigmas=(float("inf"), 1.0, 0.0)),
            lambda: SigmaSchedule(sigmas=(2.0, float("nan"), 0.0)),
            lambda: SigmaSchedule(sigmas=(1.0, float("-inf"), 0.0)),
        ],
        ids=["nan_min", "nan_max", "inf_first", "nan_middle", "minus_inf"],
    )
    def test_non_finite_sigma_rejected(self, build):
        with pytest.raises(InvalidInputError):
            build()


class TestDenoise:
    def test_single_component_closed_form(self):
        model = _single_component_model(spread=0.7)
        e = np.array([0.3, -1.0, 0.2])
        x = np.array([1.0, -2.0])
        sigma = 0.9
        m = model.maps[0] @ e
        expected = (0.7**2 * x + sigma**2 * m) / (0.7**2 + sigma**2)
        np.testing.assert_allclose(denoise(model, x, sigma, e), expected, atol=1e-12)

    def test_small_sigma_limit(self, model):
        rng = np.random.default_rng(0)
        e = rng.normal(size=model.d_c)
        x = rng.normal(size=model.d_x)
        assert np.abs(denoise(model, x, 1e-3, e) - x).max() < 1e-4

    def test_nonpositive_sigma_rejected(self, model):
        with pytest.raises(InvalidInputError):
            denoise(model, np.zeros(model.d_x), 0.0, np.zeros(model.d_c))

    @pytest.mark.parametrize("fn", [denoise, score])
    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sigma_rejected(self, model, fn, sigma):
        # nan <= 0 is False, so a plain sign check lets NaN through
        with pytest.raises(InvalidInputError):
            fn(model, np.zeros(model.d_x), sigma, np.zeros(model.d_c))

    def test_sigma_column_matches_per_sigma(self, model):
        rng = np.random.default_rng(1)
        sigmas, per = (5.0, 0.7, 0.02), 4
        x = rng.normal(size=(len(sigmas) * per, model.d_x))
        e = rng.normal(size=(len(sigmas) * per, model.d_c))
        out = denoise(model, x, np.repeat(sigmas, per)[:, None], e)
        for i, sigma in enumerate(sigmas):
            rows = slice(i * per, (i + 1) * per)
            np.testing.assert_array_equal(out[rows], denoise(model, x[rows], sigma, e[rows]))

    @pytest.mark.parametrize(
        "column",
        [[[1.0], [float("nan")]], [[1.0], [0.0]], [[1.0], [float("inf")]],
         [1.0, 1.0], [[1.0], [1.0], [1.0]]],
        ids=["nan", "zero", "inf", "flat", "too-long"],
    )
    def test_bad_sigma_column_rejected(self, model, column):
        with pytest.raises(InvalidInputError):
            denoise(model, np.zeros((2, model.d_x)), np.array(column), np.zeros((2, model.d_c)))

    def test_log_density_sigma_column_matches_per_row(self, model):
        # sigma 0, the clean density, is a valid entry
        rng = np.random.default_rng(2)
        column = np.array([[5.0], [0.7], [0.0], [0.02]])
        x = rng.normal(size=(len(column), model.d_x))
        e = rng.normal(size=(len(column), model.d_c))
        out = log_density(model, x, column, e)
        for b, sigma in enumerate(column[:, 0]):
            np.testing.assert_array_equal(
                out[b : b + 1], log_density(model, x[b : b + 1], sigma, e[b : b + 1])
            )

    @pytest.mark.parametrize("fn", [denoise, log_density, score])
    @pytest.mark.parametrize(
        "column",
        [[[1.0], [float("nan")]], [[1.0], [-1.0]], [[1.0], [float("inf")]],
         [1.0, 1.0], [[1.0], [1.0], [1.0]]],
        ids=["nan", "negative", "inf", "flat", "too-long"],
    )
    def test_bad_sigma_column_rejected_by_every_entry_point(self, model, fn, column):
        with pytest.raises(InvalidInputError, match="sigma"):
            fn(model, np.zeros((2, model.d_x)), np.array(column), np.zeros((2, model.d_c)))

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_log_density_rejects_bad_sigma(self, model, sigma):
        # sigma enters only squared, so -1.0 would return the value at 1.0
        with pytest.raises(InvalidInputError):
            log_density(model, np.zeros(model.d_x), sigma, np.zeros(model.d_c))

    @pytest.mark.parametrize("fn", [denoise, log_density, score])
    @pytest.mark.parametrize(
        "x_shape, e_shape",
        [((8,), (7,)), ((1, 7), (8,)), ((3, 8), (2, 8)), ((1, 8), (2, 8)),
         ((8,), (1, 8)), ((2, 8), (2, 1, 8))],
        ids=["e-width", "x-width", "rows-differ", "one-x-two-e", "x-flat-e-rows", "e-3d"],
    )
    def test_mismatched_shapes_rejected(self, model, fn, x_shape, e_shape):
        with pytest.raises(InvalidInputError, match="shape"):
            fn(model, np.zeros(x_shape), 0.5, np.zeros(e_shape))

    @pytest.mark.parametrize("fn", [denoise, log_density, score])
    @pytest.mark.parametrize("bad", ["x", "e"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_inputs_rejected(self, model, fn, bad, value):
        # a NaN anywhere made every output entry NaN, with no error
        args = {"x": np.zeros((2, model.d_x)), "e": np.zeros((2, model.d_c))}
        args[bad][1, 0] = value
        with pytest.raises(InvalidInputError, match="finite"):
            fn(model, args["x"], 0.5, args["e"])

    def test_log_density_at_sigma_zero_is_clean_density(self):
        model = _single_component_model(d_x=2, d_c=3, spread=0.5)
        e = np.array([0.3, -1.0, 0.2])
        x = np.array([0.4, 0.1])
        m = model.maps[0] @ e
        expected = -np.log(2 * np.pi * 0.25) - ((x - m) ** 2).sum() / (2 * 0.25)
        assert abs(log_density(model, x, 0.0, e) - expected) < 1e-12

    def test_vectorized_matches_loop(self, model):
        rng = np.random.default_rng(1)
        e = rng.normal(size=model.d_c)
        xs = rng.normal(size=(5, model.d_x))
        batched = denoise(model, xs, 0.8, e)
        for i in range(5):
            np.testing.assert_allclose(
                batched[i], denoise(model, xs[i], 0.8, e), atol=1e-14
            )

    def test_per_row_embeddings(self, model):
        rng = np.random.default_rng(2)
        es = rng.normal(size=(7, model.d_c))
        xs = rng.normal(size=(7, model.d_x))
        assert model.means(es).shape == (7, model.n_components, model.d_x)
        batched = denoise(model, xs, 0.8, es)
        for i in range(7):
            # a row of the batch does not depend on the other rows
            np.testing.assert_array_equal(
                batched[i], denoise(model, xs[i : i + 1], 0.8, es[i : i + 1])[0]
            )
            np.testing.assert_allclose(
                batched[i], denoise(model, xs[i], 0.8, es[i]), atol=1e-14
            )


class TestScore:
    def test_single_tight_gaussian(self):
        model = _single_component_model(spread=1e-6)
        e = np.array([0.5, 0.5, 0.5])
        m = model.maps[0] @ e
        x = np.array([0.2, -0.4])
        sigma = 0.7
        np.testing.assert_allclose(
            score(model, x, sigma, e), (m - x) / sigma**2, atol=1e-8
        )

    def test_symmetry_point(self):
        maps = np.stack([np.eye(2), -np.eye(2)])
        model = GmmConditionalModel(
            maps=maps, spreads=np.array([0.5, 0.5]), weights=np.array([0.5, 0.5])
        )
        e = np.array([1.0, 0.0])  # means at +-e1, symmetric about the origin
        s = score(model, np.zeros(2), 0.8, e)
        assert abs(s[0]) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), sigma=st.floats(0.1, 3.0, allow_nan=False))
    def test_matches_log_density_gradient(self, model, seed, sigma):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=model.d_c)
        x = rng.normal(size=model.d_x) * 2.0
        s = score(model, x, sigma, e)
        h = 1e-5
        for i in range(model.d_x):
            delta = np.zeros(model.d_x)
            delta[i] = h
            fd = (
                log_density(model, x + delta, sigma, e)
                - log_density(model, x - delta, sigma, e)
            ) / (2 * h)
            assert abs(s[i] - fd) < 1e-6

    def test_log_density_matches_scipy(self, model):
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(5)
        e = rng.normal(size=model.d_c)
        x = rng.normal(size=model.d_x)
        sigma = 0.6
        means = model.means(e)
        mix = sum(
            w * multivariate_normal.pdf(x, mean=m, cov=(s**2 + sigma**2))
            for w, m, s in zip(model.weights, means, model.spreads)
        )
        assert abs(log_density(model, x, sigma, e) - np.log(mix)) < 1e-10


def _row_normalized(weights: np.ndarray) -> np.ndarray:
    return weights / weights.sum(axis=2, keepdims=True)


class TestAttentionProvider:
    """The latent-conditioned attention the sampler ranks tokens from.

    A PromptState gives unnormalized weights (oracles.state_weights);
    row-normalized they are the block's attention under a query bias linear
    in (x, sigma).
    """

    def test_zero_bias_equals_static(self, encoder, tokens):
        state = encoder.prompt_state(tokens, 1, 8)
        static = block_static(encoder, tokens, 1)
        np.testing.assert_array_equal(
            _row_normalized(state_weights(state, np.zeros(8), 1.0, 0.0)),
            static / static.sum(axis=-1, keepdims=True),
        )

    def test_latent_dependence(self, encoder, tokens):
        state = encoder.prompt_state(tokens, 1, 8)
        a = _row_normalized(state_weights(state, np.zeros(8), 1.0, 0.1))
        b = _row_normalized(state_weights(state, np.ones(8), 1.0, 0.1))
        assert np.abs(a - b).max() > 0

    def test_rows_stochastic(self, encoder, tokens):
        state = encoder.prompt_state(tokens, 0, 8)
        heads = _row_normalized(
            state_weights(state, np.random.default_rng(0).normal(size=8), 0.5, 0.1)
        )
        assert (heads > 0).all()
        np.testing.assert_allclose(heads.sum(axis=2), 1.0, atol=1e-9)

    def test_bad_block_rejected(self, encoder, tokens):
        with pytest.raises(InvalidInputError):
            encoder.prompt_state(tokens, 5, 8)


def _assert_same_masks(chain, got, want, steps):
    """Two runs of one chain: keep bits (steps, N) equal bit for bit, or
    None both for a mode that does not degrade."""
    if not chain.config.mode.uses_degradation:
        assert got.masks is None and want.masks is None
        return
    assert got.masks.shape == want.masks.shape == (steps, len(chain.tokens))
    assert got.masks.dtype == want.masks.dtype == bool
    np.testing.assert_array_equal(got.masks, want.masks)


class TestSample:
    def test_trajectory_shape(self, model, schedule, encoder, tokens):
        run = sample(model, schedule, encoder, tokens, CFG, seed=0)
        assert len(run.trajectory) == schedule.steps + 1
        assert run.masks is None
        assert run.wpr_call_count == 0

    def test_determinism(self, model, schedule, encoder, tokens):
        a = sample(model, schedule, encoder, tokens, CFG, seed=3)
        b = sample(model, schedule, encoder, tokens, CFG, seed=3)
        np.testing.assert_array_equal(a.final, b.final)

    def test_unit_scale_equals_unguided(self, model, schedule, encoder, tokens):
        for mode_cfg in (
            GuidanceConfig(mode=GuidanceMode.CFG, guidance_scale=1.0),
            GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=1.0, r_deg=0.7),
        ):
            guided = sample(model, schedule, encoder, tokens, mode_cfg, seed=5)
            plain = sample(model, schedule, encoder, tokens, UNGUIDED, seed=5)
            np.testing.assert_array_equal(
                np.stack(guided.trajectory), np.stack(plain.trajectory)
            )

    def test_wpr_call_count_contract(self, model, schedule, encoder, tokens):
        reuse = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5)
        per_step = GuidanceConfig(
            mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5,
            reuse_first_step_mask=False,
        )
        boundary = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=1.0)
        assert sample(model, schedule, encoder, tokens, reuse, 0).wpr_call_count == 1
        assert (
            sample(model, schedule, encoder, tokens, per_step, 0).wpr_call_count
            == schedule.steps
        )
        assert sample(model, schedule, encoder, tokens, boundary, 0).wpr_call_count == 0

    def test_cfg_star_counts_once(self, model, schedule, encoder, tokens):
        star = GuidanceConfig(
            mode=GuidanceMode.CFG_STAR, guidance_scale=3.0, r_deg=0.5
        )
        assert sample(model, schedule, encoder, tokens, star, 0).wpr_call_count == 1

    def test_reuse_equals_per_step_with_static_attention(
        self, model, schedule, encoder, tokens
    ):
        reuse = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5)
        per_step = GuidanceConfig(
            mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5,
            reuse_first_step_mask=False,
        )
        a = sample(
            model, schedule, encoder, tokens, reuse, 4, attention_bias_weight=0.0
        )
        b = sample(
            model, schedule, encoder, tokens, per_step, 4, attention_bias_weight=0.0
        )
        np.testing.assert_array_equal(np.stack(a.trajectory), np.stack(b.trajectory))

    def test_fusion_path_matches_fast_path(self, model, schedule, encoder, tokens):
        cfg = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5)
        fast = sample(model, schedule, encoder, tokens, cfg, 2)
        wide = FusionConfig(v_min=0.0, v_max=np.inf, enabled=True)
        rich = sample(model, schedule, encoder, tokens, cfg, 2, fusion=wide)
        np.testing.assert_allclose(
            np.stack(fast.trajectory), np.stack(rich.trajectory), atol=1e-9
        )

    def test_batch_matches_individual_runs(self, model, schedule, encoder, tokens):
        seeds = [0, 1, 2, 3]
        batch = sample_batch(
            model, schedule, encoder, [Chain(tokens, CFG, s) for s in seeds]
        )
        for i, s in enumerate(seeds):
            run = sample(model, schedule, encoder, tokens, CFG, s)
            np.testing.assert_array_equal(batch[i].final, run.final)

    def test_mixed_batch_matches_per_chain(self, model, schedule, encoder, params):
        configs = [
            UNGUIDED,
            CFG,
            GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5),
            GuidanceConfig(
                mode=GuidanceMode.CDG, guidance_scale=2.5, r_deg=0.7,
                reuse_first_step_mask=False,
            ),
            GuidanceConfig(mode=GuidanceMode.CFG_STAR, guidance_scale=3.0, r_deg=0.5),
            GuidanceConfig(
                mode=GuidanceMode.CFG_STAR, guidance_scale=2.0, r_deg=1.3,
                reuse_first_step_mask=False,
            ),
            GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=1.0),
            # unit-scale chains, which skip the combine, and a second CFG scale
            GuidanceConfig(mode=GuidanceMode.CFG, guidance_scale=1.0),
            GuidanceConfig(
                mode=GuidanceMode.CDG, guidance_scale=1.0, r_deg=0.6,
                reuse_first_step_mask=False,
            ),
            GuidanceConfig(
                mode=GuidanceMode.CFG_STAR, guidance_scale=1.0, r_deg=0.4,
                reuse_first_step_mask=False,
            ),
            GuidanceConfig(mode=GuidanceMode.CFG, guidance_scale=5.5),
        ]
        prompts = ["a man is cooking", "a cat sits on the mat", ""]
        chains = [
            Chain(tokenize(prompt, params), config, seed=7 * p + k)
            for p, prompt in enumerate(prompts)
            for k, config in enumerate(configs)
        ]
        # chains that share a prompt state and a latent: exact duplicates
        # (per-step, so they share one at every step) and one seed across
        # ratios and modes, ranked once per step in the batch
        chains += [chains[3], chains[3], chains[len(configs) + 5], chains[5]]
        chains += [
            Chain(chains[0].tokens, config, seed=99) for config in configs[2:]
        ]
        # the guided rows above are scattered through the batch; here they
        # form one block after an unguided row, as in a sweep, and so do the
        # rows that build a mask at step 0
        block = [
            Chain(chains[0].tokens, config, seed=3 + k)
            for k, config in enumerate([UNGUIDED, configs[2], configs[3], CFG])
        ]
        # the disabled filter, one keeping every head, and one keeping a strict,
        # non-empty subset of every prompt's heads
        cases = [
            (chains, FusionConfig(), DEFAULT_ATTENTION_BIAS_WEIGHT),
            (chains, FusionConfig(v_min=0.0, v_max=1.0, enabled=True),
             DEFAULT_ATTENTION_BIAS_WEIGHT),
            (chains, window_below_top_heads(encoder, [c.tokens for c in chains]), 0.0),
            (block, FusionConfig(), DEFAULT_ATTENTION_BIAS_WEIGHT),
            (block, window_below_top_heads(encoder, [c.tokens for c in block]), 0.0),
        ]
        for chains, fusion, bias in cases:
            batch = sample_batch(
                model, schedule, encoder, chains, fusion=fusion, attention_bias_weight=bias
            )
            assert len(batch) == len(chains)
            for chain, run in zip(chains, batch):
                alone = sample(
                    model, schedule, encoder, chain.tokens, chain.config, chain.seed,
                    fusion=fusion, attention_bias_weight=bias,
                )
                np.testing.assert_array_equal(run.trajectory, alone.trajectory)
                assert run.wpr_call_count == alone.wpr_call_count
                _assert_same_masks(chain, run, alone, schedule.steps)

    def test_row_index_is_a_slice_for_a_contiguous_run(self):
        assert diffusion._rows([0, 1, 2]) == slice(0, 3)
        assert diffusion._rows([4, 5, 6]) == slice(4, 7)
        assert diffusion._rows([2]) == slice(2, 3)
        scattered = diffusion._rows([0, 2, 3])
        assert isinstance(scattered, np.ndarray)
        np.testing.assert_array_equal(scattered, [0, 2, 3])

    def test_duplicate_chains_match_per_chain(self, model, schedule, encoder, params):
        short = tokenize("a man is cooking", params)  # 4 content words
        # 12 content words and 4 context-aggregating positions: R=1.0, 1.1
        # and 1.2 all replace every content word and nothing else
        long = tokenize("the old man and the young woman cook dinner in a kitchen", params)
        cdg = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5)
        chains = [
            Chain(short, UNGUIDED, 0),
            Chain(short, CFG, 0),
            Chain(short, cdg, 0),
            # R=0.6 floors to cdg's extent of 2 content words
            Chain(short, replace(cdg, r_deg=0.6), 0),
            Chain(short, GuidanceConfig(
                mode=GuidanceMode.CDG, guidance_scale=2.5, r_deg=0.5,
                reuse_first_step_mask=False), 1),
            Chain(short, GuidanceConfig(
                mode=GuidanceMode.CDG, guidance_scale=2.5, r_deg=0.6,
                reuse_first_step_mask=False), 1),
            Chain(short, GuidanceConfig(
                mode=GuidanceMode.CFG_STAR, guidance_scale=2.5, r_deg=0.5,
                reuse_first_step_mask=False), 2),
            Chain(short, GuidanceConfig(
                mode=GuidanceMode.CFG_STAR, guidance_scale=2.5, r_deg=0.55,
                reuse_first_step_mask=False), 2),
        ] + [
            Chain(long, GuidanceConfig(
                mode=GuidanceMode.CFG_STAR, guidance_scale=2.5, r_deg=r,
                reuse_first_step_mask=False), 3)
            for r in (1.0, 1.1, 1.2)
        ]
        chains += chains  # and every chain again
        batch = sample_batch(model, schedule, encoder, chains)
        for chain, run in zip(chains, batch):
            alone = sample(model, schedule, encoder, chain.tokens, chain.config, chain.seed)
            np.testing.assert_array_equal(run.trajectory, alone.trajectory)
            assert run.wpr_call_count == alone.wpr_call_count
            _assert_same_masks(chain, run, alone, schedule.steps)
        # the boundary ranks nothing; the chains beside it rank every step
        assert [run.wpr_call_count for run in batch[8:11]] == [0] + [schedule.steps] * 2

    def test_duplicate_runs_own_their_trajectories(self, model, schedule, encoder, tokens):
        a, b = sample_batch(model, schedule, encoder, [Chain(tokens, CFG, 0)] * 2)
        np.testing.assert_array_equal(a.trajectory, b.trajectory)
        a.trajectory[:] = 0.0
        np.testing.assert_array_equal(
            b.trajectory, sample(model, schedule, encoder, tokens, CFG, 0).trajectory
        )

    @pytest.mark.parametrize("reuse", [True, False])
    def test_shared_masks_are_read_only(self, model, schedule, encoder, tokens, reuse):
        # duplicate chains share their row of the ledger, and a reuse chain
        # holds its step-0 mask at every step: a write through one run
        # would change the other's masks, or the mask of every step
        cdg = GuidanceConfig(
            mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5,
            reuse_first_step_mask=reuse,
        )
        a, b = sample_batch(model, schedule, encoder, [Chain(tokens, cdg, 0)] * 2)
        want = sample(model, schedule, encoder, tokens, cdg, 0).masks
        for run in (a, b):
            for step in (0, schedule.steps - 1):
                with pytest.raises(ValueError, match="read-only"):
                    run.masks[step, 0] = not run.masks[step, 0]
            np.testing.assert_array_equal(run.masks, want)
        if reuse:
            np.testing.assert_array_equal(a.masks, np.broadcast_to(a.masks[0], a.masks.shape))

    def test_sweep_batch_integrates_each_distinct_chain_once(
        self, model, schedule, encoder, params, monkeypatch
    ):
        rows: list[int] = []
        real = diffusion._denoise

        def counting(model, x, sigma, m):
            rows.append(x.shape[0])
            return real(model, x, sigma, m)

        monkeypatch.setattr(diffusion, "_denoise", counting)
        # a sweep's shape: the references, then P prompts x an R grid, one seed
        prompts = [tokenize(p, params) for p in ("a man is cooking", "a dog", "")]
        grid = [i / 10 for i in range(21)]
        cdg = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=1.0)
        chains = [Chain(t, UNGUIDED, 0) for t in prompts] + [
            Chain(t, replace(cdg, r_deg=r), 0) for r in grid for t in prompts
        ]
        runs = sample_batch(model, schedule, encoder, chains)
        distinct = {
            (chain.tokens.ids, chain.config.r_deg == 1.0,
             *replaced(chain.tokens, run.masks[0])[1:])
            for chain, run in zip(chains[3:], runs[3:])
        }
        assert len(distinct) < len(grid) * len(prompts)
        # per step: every distinct chain at its positive, the guided ones at
        # their negative
        assert rows == [len(prompts) + len(distinct), len(distinct)] * schedule.steps

    def test_means_once_per_embedding(self, model, schedule, encoder, params, monkeypatch):
        seen: list[int] = []
        real = model.means

        def counting(e):
            seen.append(len(np.atleast_2d(e)))
            return real(e)

        monkeypatch.setattr(model, "means", counting)
        per_step = {"reuse_first_step_mask": False, "guidance_scale": 3.0}
        configs = [
            UNGUIDED,
            CFG,
            GuidanceConfig(mode=GuidanceMode.CFG, guidance_scale=2.0),
            GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5),
            GuidanceConfig(mode=GuidanceMode.CDG, r_deg=0.5, **per_step),
            GuidanceConfig(mode=GuidanceMode.CFG_STAR, r_deg=1.5, **per_step),
        ]
        prompts = [tokenize(p, params) for p in ("a man is cooking", "a cat sits on the mat")]
        chains = [Chain(t, c, s) for s, t in enumerate(prompts) for c in configs]
        runs = sample_batch(model, schedule, encoder, chains)
        changed = 0
        for run in runs:
            masks = run.masks
            if masks is not None:
                changed += 1 + sum(
                    not np.array_equal(a, b) for a, b in zip(masks, masks[1:])
                )
        assert changed > 3 * len(prompts)  # some per-step masks change
        # each prompt's positive rows (not CFG*'s, which is degraded), the
        # null negative once, then each degraded embedding whenever it changes
        positives = sum(c.config.mode is not GuidanceMode.CFG_STAR for c in chains)
        assert sum(seen) == positives + 1 + changed

    def test_unit_scale_skips_negative(self, model, schedule, encoder, tokens, monkeypatch):
        rows: list[int] = []
        real = diffusion._denoise

        def counting(model, x, sigma, m):
            rows.append(x.shape[0])
            return real(model, x, sigma, m)

        monkeypatch.setattr(diffusion, "_denoise", counting)
        unit = [
            GuidanceConfig(mode=GuidanceMode.CFG, guidance_scale=1.0),
            GuidanceConfig(
                mode=GuidanceMode.CDG, guidance_scale=1.0, r_deg=0.5,
                reuse_first_step_mask=False,
            ),
            GuidanceConfig(
                mode=GuidanceMode.CFG_STAR, guidance_scale=1.0, r_deg=0.5,
                reuse_first_step_mask=False,
            ),
        ]
        chains = [Chain(tokens, c, 0) for c in [UNGUIDED, CFG, *unit]]
        runs = sample_batch(model, schedule, encoder, chains)
        # every chain at its positive condition, then only the w=3 chain
        assert rows == [len(chains), 1] * schedule.steps
        for chain, run in zip(chains[2:], runs[2:]):
            if chain.config.mode.uses_degradation:
                # unit-scale degradation chains still build their masks
                assert run.wpr_call_count == schedule.steps
                assert run.masks.shape == (schedule.steps, len(tokens))

    def test_shared_inputs_solved_once(self, model, schedule, encoder, params, monkeypatch):
        # a sweep's shape: P prompts x an R grid, one seed, first-step reuse
        shapes = recorded_solves(monkeypatch)
        prompts = [tokenize(p, params) for p in ("a man is cooking", "a dog", "")]
        grid = [0.0, 0.5, 1.0, 1.5, 2.0]
        sample_batch(model, schedule, encoder, [
            Chain(t, GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=r), 0)
            for r in grid for t in prompts
        ])
        n, h = params.seq_len, params.n_heads
        # one stacked call at step 0; the R=1 boundary needs no solve
        assert shapes == [(len(prompts) * h, n, n)]

    def test_per_step_batch_one_solve_per_step(
        self, model, schedule, encoder, params, monkeypatch
    ):
        shapes = recorded_solves(monkeypatch)
        per_step = GuidanceConfig(
            mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5,
            reuse_first_step_mask=False,
        )
        prompts = [tokenize(p, params) for p in ("a man is cooking", "a dog", "")]
        runs = sample_batch(
            model, schedule, encoder, [Chain(t, per_step, i) for i, t in enumerate(prompts)]
        )
        n, h = params.seq_len, params.n_heads
        assert shapes == [(len(prompts) * h, n, n)] * schedule.steps
        assert all(run.wpr_call_count == schedule.steps for run in runs)

    def test_all_heads_filtered_names_chain(self, model, schedule, encoder, params):
        keep, drop = (tokenize(p, params) for p in ("a man is cooking", "a dog"))
        fusion = window_around_first_head(encoder, keep, drop)
        cdg = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5)
        sample_batch(
            model, schedule, encoder, [Chain(keep, cdg, 0)],
            fusion=fusion, attention_bias_weight=0.0,
        )
        with pytest.raises(AllHeadsFilteredError, match="chain 1 at sigma"):
            sample_batch(
                model, schedule, encoder, [Chain(keep, cdg, 0), Chain(drop, cdg, 1)],
                fusion=fusion, attention_bias_weight=0.0,
            )

    def test_batch_encodes_each_prompt_once(self, model, schedule, params, monkeypatch):
        from cdglab.encoder import ToyTextEncoder

        encoder = ToyTextEncoder(params)
        encoder.null_condition()  # encoded once per encoder, not per batch
        walks = record_walks(encoder, monkeypatch)
        cdg = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5)
        tokens = [tokenize(p, params) for p in ("a man is cooking", "a dog")]
        sample_batch(
            model, schedule, encoder, [Chain(t, cdg, s) for s in range(3) for t in tokens]
        )
        # one walk over the distinct prompts, at the one block
        assert walks == [([t.ids for t in tokens], [cdg.lambda_block] * len(tokens))]

    def test_batch_ranking_at_two_blocks_matches_per_chain(
        self, model, schedule, params, monkeypatch
    ):
        # one prompt ranked at blocks 0 and 1, another at block 0, and one
        # that no chain ranks: CFG and the unranked R=1.0 mask
        from cdglab.encoder import ToyTextEncoder

        a, b, c = (
            tokenize(p, params)
            for p in ("a man is cooking", "a cat sits on the mat", "the dog runs")
        )

        def cdg(block: int, r_deg: float = 0.5, reuse: bool = True) -> GuidanceConfig:
            return GuidanceConfig(
                mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=r_deg,
                lambda_block=block, reuse_first_step_mask=reuse,
            )

        chains = [
            Chain(a, cdg(0), 0), Chain(c, CFG, 1), Chain(a, cdg(1, reuse=False), 2),
            Chain(b, cdg(0, reuse=False), 3), Chain(c, cdg(1, r_deg=1.0), 4),
            Chain(a, cdg(1), 5),
        ]
        encoder = ToyTextEncoder(params)
        walks = record_walks(encoder, monkeypatch)
        built = []
        build = encoder._build_state
        monkeypatch.setattr(
            encoder, "_build_state",
            lambda key, *arrays: built.append(key) or build(key, *arrays),
        )
        batch = sample_batch(model, schedule, encoder, chains)
        assert len(walks) == 1
        assert sorted(built) == sorted(
            [(a.ids, 0, model.d_x), (a.ids, 1, model.d_x), (b.ids, 0, model.d_x)]
        )
        for chain, run in zip(chains, batch):
            alone = sample(
                model, schedule, ToyTextEncoder(params), chain.tokens, chain.config, chain.seed
            )
            np.testing.assert_array_equal(run.trajectory, alone.trajectory)
            assert run.wpr_call_count == alone.wpr_call_count
            _assert_same_masks(chain, run, alone, schedule.steps)

    def test_empty_batch(self, model, schedule, encoder):
        assert sample_batch(model, schedule, encoder, []) == []

    def test_non_finite_latent_names_step_and_chain(
        self, model, schedule, encoder, tokens
    ):
        huge = GuidanceConfig(mode=GuidanceMode.CFG, guidance_scale=1e300)
        chains = [Chain(tokens, CFG, 0), Chain(tokens, huge, 1)]
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match=r"step \d+ in chain 1"):
                sample_batch(model, schedule, encoder, chains)

    def test_non_finite_latent_names_first_duplicate(self, model, schedule, encoder, tokens):
        huge = GuidanceConfig(mode=GuidanceMode.CFG, guidance_scale=1e300)
        chains = [Chain(tokens, CFG, 0)] * 2 + [Chain(tokens, huge, 1)] * 2
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match=r"step \d+ in chain 2"):
                sample_batch(model, schedule, encoder, chains)

    def test_negative_seed_names_chain(self, model, schedule, encoder, tokens):
        chains = [Chain(tokens, CFG, 0), Chain(tokens, UNGUIDED, -1)]
        with pytest.raises(InvalidInputError, match="chain 1.*seed"):
            sample_batch(model, schedule, encoder, chains)
        with pytest.raises(InvalidInputError, match="chain 0.*seed"):
            sample(model, schedule, encoder, tokens, CFG, -1)

    def test_overflowing_attention_bias_rejected(self, model, schedule, encoder, tokens):
        cdg = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5)
        with np.errstate(all="ignore"):
            with pytest.raises(DegenerateGraphError):
                sample(model, schedule, encoder, tokens, cdg, 0, attention_bias_weight=1e6)


DEGRADE_PROMPTS = ["a man is cooking", "a cat sits on the mat", "", "the dog runs in a park"]


def _degrade_case(encoder, params, data):
    """(blocks, fusion, bias): per sigma, its rows and their latents.

    A row is a degrade_set row whose latent names (sigma index, latent
    row). Prompts repeat across and within blocks, R=1.0 rows do not rank,
    a block may end with a copy of its last row at the same latent, which
    shares its key, and the first row of the second block has the prompt
    and the latent of the first block's first row, at another sigma.
    """
    bias = data.draw(st.sampled_from([0.0, DEFAULT_ATTENTION_BIAS_WEIGHT]))
    tokens = [tokenize(p, params) for p in DEGRADE_PROMPTS]
    fusion = data.draw(st.sampled_from([
        FusionConfig(),
        FusionConfig(v_min=0.0, v_max=1.0, enabled=True),
        window_below_top_heads(encoder, tokens),
    ]))
    sigmas = data.draw(st.lists(
        st.integers(1, 2000).map(lambda i: i / 100), min_size=2, max_size=4, unique=True
    ))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    specs = st.tuples(
        st.integers(0, len(tokens) - 1), st.sampled_from([0.3, 0.5, 1.0, 1.5])
    )
    blocks = []
    for si, sigma in enumerate(sigmas):
        block = data.draw(st.lists(specs, min_size=1, max_size=4))
        x = rng.normal(size=(len(block), 8)) * sigma
        if si == 1:
            block[0] = blocks[0][1][0]
            x[0] = blocks[0][2][0]
        latents = list(range(len(block)))
        if data.draw(st.booleans()):
            block.append(block[-1])
            latents.append(latents[-1])
            x = np.concatenate([x, x[-1:]])
        blocks.append((sigma, block, x, [(si, i) for i in latents]))
    return [
        (
            sigma,
            [
                (f"row {si}.{r}", tokens[p], encoder.encode(tokens[p]),
                 map_ratio(r_deg), 1, latent)
                for r, ((p, r_deg), latent) in enumerate(zip(block, latents))
            ],
            x,
        )
        for si, (sigma, block, x, latents) in enumerate(blocks)
    ], fusion, bias


def degrade_set_of(encoder, rows, d_x: int) -> diffusion.DegradeSet:
    """degrade_set over rows, from the prompt states of one encode_stack
    call over their tokens and blocks, as a caller takes them."""
    _, states = encoder.encode_stack([r[1] for r in rows], [r[4] for r in rows], d_x)
    return diffusion.degrade_set(states, rows, d_x)


def _degrade_per_sigma(encoder, blocks, fusion, bias, previous):
    """degrade_rows once per sigma, its results laid end to end."""
    masks, changed, embeddings, start = [], [], [], 0
    for sigma, rows, x in blocks:
        prev = None if previous is None else previous[start : start + len(rows)]
        m, c, e = diffusion.degrade_rows(
            encoder, degrade_set_of(encoder, rows, 8), x, sigma, 8, fusion, bias, prev
        )
        masks.append(m)
        changed += [start + r for r in c]
        embeddings += [] if e is None else list(e)
        start += len(rows)
    return np.concatenate(masks), changed, embeddings


def _assert_masks_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == bool
    np.testing.assert_array_equal(got, want)


class TestDegradeRows:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sigma_column_matches_per_sigma_calls(self, encoder, params, data):
        blocks, fusion, bias = _degrade_case(encoder, params, data)
        rows = degrade_set_of(encoder, [row for _, b, _ in blocks for row in b], 8)
        x = np.concatenate([x for *_, x in blocks])
        column = np.concatenate([np.full((len(b), 1), s) for s, b, _ in blocks])
        # each call's masks once without a previous step, and once against
        # the masks of the same rows one block later, so some rows change
        try:
            first = _degrade_per_sigma(encoder, blocks, fusion, bias, None)[0]
        except AllHeadsFilteredError as exc:
            with pytest.raises(AllHeadsFilteredError, match=re.escape(str(exc))):
                diffusion.degrade_rows(encoder, rows, x, column, 8, fusion, bias)
            return
        shifted = np.roll(first, -len(blocks[0][1]), axis=0)
        for previous in (None, shifted):
            expected = _degrade_per_sigma(encoder, blocks, fusion, bias, previous)
            masks, changed, e = diffusion.degrade_rows(
                encoder, rows, x, column, 8, fusion, bias, previous
            )
            assert changed == expected[1]
            _assert_masks_equal(masks, expected[0])
            if changed:
                np.testing.assert_array_equal(e, np.array(expected[2]))
            else:
                assert e is None and not expected[2]
        # a row gets the same mask alone, ranked under its own key
        for r, mask in enumerate(masks):
            alone = diffusion.degrade_rows(
                encoder, rows.subset([r]), x[r : r + 1], column[r, 0], 8, fusion, bias
            )[0]
            _assert_masks_equal(alone, mask[None])
        # every key's weights, in the one-key form and in the stacked form,
        # equal the oracle's at the latent and sigma of its first row
        if rows.key_states:
            firsts = [rows.keys.index(k) for k in range(len(rows.key_states))]
            stacked = diffusion._stacked_weights(
                rows.key_states, x[firsts], column[firsts], bias
            )
            for k, r in enumerate(firsts):
                want = state_weights(rows.key_states[k], x[r], column[r, 0], bias)
                one = diffusion._stacked_weights(
                    rows.key_states[k : k + 1], x[r : r + 1], column[r, 0], bias
                )
                np.testing.assert_array_equal(one, want[None])
                np.testing.assert_array_equal(stacked[k], want)

    def test_same_state_and_latent_at_two_sigmas_ranked_apart(self, encoder, params):
        tokens = tokenize("the old man and the young woman cook dinner", params)
        row = ("row", tokens, encoder.encode(tokens), map_ratio(0.5), 1, 0)
        x = np.tile(np.random.default_rng(4).normal(size=8) * 3.0, (2, 1))
        sigmas = [0.05, 20.0]
        alone = [
            diffusion.degrade_rows(
                encoder, degrade_set_of(encoder, [row], 8), x[:1], s, 8, FusionConfig(), 0.5
            )[0][0]
            for s in sigmas
        ]
        # the two sigmas rank the tokens apart, so a shared key would give
        # the second row the first one's mask
        assert (alone[0] != alone[1]).any()
        # the geometry sweep's rows: one prompt at two sigmas, each ranked
        # under its own key
        both = degrade_set_of(encoder, [row], 8).subset([0, 0])
        assert both.keys == [0, 1]
        masks = diffusion.degrade_rows(
            encoder, both, x, np.array(sigmas)[:, None], 8, FusionConfig(), 0.5
        )[0]
        _assert_masks_equal(masks, np.array(alone))

    def test_all_heads_filtered_names_row_and_its_sigma(self, encoder, params):
        keep, drop = (tokenize(p, params) for p in ("a man is cooking", "a dog"))
        fusion = window_around_first_head(encoder, keep, drop)
        rows = degrade_set_of(
            encoder,
            [
                (label, t, encoder.encode(t), map_ratio(0.5), 1, r)
                for r, (label, t) in enumerate((("first", keep), ("second", keep), ("third", drop)))
            ],
            8,
        )
        x = np.random.default_rng(0).normal(size=(3, 8))
        column = np.array([[5.0], [2.5], [0.75]])
        with pytest.raises(AllHeadsFilteredError, match="for third at sigma 0.75"):
            diffusion.degrade_rows(encoder, rows, x, column, 8, fusion, 0.0)

    @pytest.mark.parametrize("shape", [(2, 1), (3,), (1, 3), (3, 2)])
    def test_bad_sigma_column_rejected(self, encoder, tokens, shape):
        row = ("row", tokens, encoder.encode(tokens), map_ratio(0.5), 1, 0)
        rows = degrade_set_of(encoder, [row], 8).subset([0] * 3)
        with pytest.raises(InvalidInputError):
            diffusion.degrade_rows(
                encoder, rows, np.zeros((3, 8)), np.ones(shape), 8, FusionConfig(), 0.1
            )


class TestSamplerStatistics:
    def test_unguided_reaches_component_mean(self):
        # deterministic PF-ODE flow into a single Gaussian must land near
        # the mean on average over initial noise
        model = _single_component_model(d_x=2, d_c=3, spread=0.4)
        schedule = SigmaSchedule.log_spaced(100, 10.0, 0.005)
        e = np.array([1.0, -0.5, 0.25])
        rng = np.random.default_rng(0)
        finals = []
        for s in range(200):
            x = np.random.default_rng(s).normal(size=2) * schedule.sigmas[0]
            for i in range(schedule.steps):
                sig = schedule.sigmas[i]
                eps = (x - denoise(model, x, sig, e)) / sig
                x = x + (schedule.sigmas[i + 1] - sig) * eps
            finals.append(x)
        mean = np.mean(finals, axis=0)
        np.testing.assert_allclose(mean, model.maps[0] @ e, atol=0.15)
