"""Analytic denoiser, score, schedules, and the guided sampling loop."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdglab import diffusion
from cdglab.degradation import _masks, build_mask, map_ratio, mask_extent, needs_ranking
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
from cdglab.encoder import ToyTextEncoder, tokenize
from cdglab.errors import (
    AllHeadsFilteredError,
    DegenerateGraphError,
    InvalidInputError,
    NumericalError,
)
from cdglab.guidance import GuidanceConfig, GuidanceMode
from cdglab.importance import FusionConfig, fuse_head_stacks, stationary_scores
from conftest import degrade_row, encode_one, state_of
from oracles import (
    block_static,
    replaced,
    row_major_denoise,
    row_major_log_density,
    state_weights,
)

CFG = GuidanceConfig(mode=GuidanceMode.CFG, guidance_scale=3.0)
UNGUIDED = GuidanceConfig(mode=GuidanceMode.NONE, guidance_scale=1.0)


def recorded_solves(monkeypatch) -> list[tuple[int, ...]]:
    """The input shape of every stationary solve the sampler makes from now on."""
    shapes = []
    solve = diffusion._stationary_solve

    def recording(p):
        shapes.append(np.shape(p))
        return solve(p)

    monkeypatch.setattr(diffusion, "_stationary_solve", recording)
    return shapes


def record_certified_solves(monkeypatch) -> list[tuple]:
    """The sampler's certificates and solves from now on, in call order:
    ("certify", (normalized weights, uncertified keys)) and ("solve", weights)."""
    events = []
    certify, solve = diffusion._certify, diffusion._compute_importance

    def certifying(p, rows, previous):
        y, unsure = certify(p, rows, previous)
        events.append(("certify", (p.copy(), unsure)))
        return y, unsure

    def solving(p):
        events.append(("solve", p.copy()))
        return solve(p)

    monkeypatch.setattr(diffusion, "_certify", certifying)
    monkeypatch.setattr(diffusion, "_compute_importance", solving)
    return events


def no_certificate(p, rows, previous):
    raise AssertionError("this call has no later ranking step to certify")


def certify_none(p, rows, previous):
    """A certificate that certifies no key, so every later step solves every key."""
    return rows.heads, list(range(len(p)))


def record_walks(encoder, monkeypatch) -> list[tuple[list, list]]:
    """The (token ids, blocks) of every encode_stack call the encoder makes from now on."""
    walks = []
    walk = encoder.encode_stack

    def recording(tokens, blocks):
        walks.append(([t.ids for t in tokens], list(blocks)))
        return walk(tokens, blocks)

    monkeypatch.setattr(encoder, "encode_stack", recording)
    return walks


def head_variances(encoder, tokens) -> np.ndarray:
    """Each head's score variance at attention bias 0, where the attention,
    and so the variance, does not depend on the latent."""
    static = state_of(encoder, tokens, 1).static
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

    @pytest.mark.parametrize(
        "shape", [(5,), (2, 3), (2, 3, 8), (), (1, 1, 1, 8)],
        ids=["width", "rows_width", "three_axes", "scalar", "four_axes"],
    )
    def test_misshapen_embeddings_rejected_by_means(self, model, shape):
        with pytest.raises(InvalidInputError, match="shape"):
            model.means(np.zeros(shape))


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


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestComponentMajor:
    """The component-major denoiser against the row-major oracle, bit for
    bit: from J 9 on, and at d_x 1, a sum in another order would differ."""

    @pytest.fixture(params=[1, 4, 7, 8, 9, 130], ids=lambda j: f"J{j}")
    def n_components(self, request):
        return request.param

    @pytest.fixture(params=[1, 2, 8, 9], ids=lambda d: f"dx{d}")
    def wide(self, request, n_components):
        return GmmConditionalModel.random(n_components, request.param, 5, seed=n_components)

    @staticmethod
    def _cases(model):
        """(latents, sigma, embeddings): 1-D, 2-D and 3-D latents under one
        embedding, and rows under one embedding each, at scalar sigmas and a
        (B, 1) column; latents far from some means give peaked weights."""
        rng = np.random.default_rng(model.n_components * 10 + model.d_x)
        d_x, d_c = model.d_x, model.d_c
        column = rng.uniform(0.01, 6.0, size=(7, 1))
        for sigma in (0.05, 0.7, 6.0):
            yield rng.normal(size=d_x) * 3, sigma, rng.normal(size=d_c)
            yield rng.normal(size=(3, 5, d_x)) * 3, sigma, rng.normal(size=d_c)
        for sigma in (0.7, column):
            yield rng.normal(size=(7, d_x)) * 3, sigma, rng.normal(size=d_c)
            yield rng.normal(size=(7, d_x)) * 3, sigma, rng.normal(size=(7, d_c))

    def test_denoise_matches_row_major(self, wide):
        for x, sigma, e in self._cases(wide):
            want = row_major_denoise(wide, x, sigma, wide.means(e))
            _assert_same_bits(denoise(wide, x, sigma, e), want)

    def test_log_density_matches_row_major(self, wide):
        for x, sigma, e in self._cases(wide):
            for s in (sigma, 0.0 * sigma):  # sigma 0 is the clean density
                want = row_major_log_density(wide, x, s, wide.means(e))
                got = log_density(wide, x, s, e)
                assert type(got) is type(want)
                _assert_same_bits(got, want)

    def test_sampler_layout_matches_row_major(self, wide):
        """_denoise at the means as the sampler holds them: rows of a
        (J, 2, B, d_x) array, a side a strided view, and a gathered copy."""
        rng = np.random.default_rng(wide.n_components)
        x = rng.normal(size=(6, wide.d_x)) * 3
        rows = wide.means(rng.normal(size=(6, wide.d_c)))
        means = np.empty((wide.n_components, 2, 6, wide.d_x))
        means[:, 1] = rows.swapaxes(0, 1)
        for sigma in (0.05, 0.7, 6.0):
            want = row_major_denoise(wide, x, sigma, rows)
            _assert_same_bits(diffusion._denoise(wide, x, sigma, means[:, 1]), want)
            picked = [0, 2, 5]
            _assert_same_bits(
                diffusion._denoise(wide, x[picked], sigma, means[:, 1, picked]), want[picked]
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
        state = state_of(encoder, tokens, 1)
        static = block_static(encoder, tokens, 1)
        np.testing.assert_array_equal(
            _row_normalized(state_weights(state, np.zeros(8), 1.0, 0.0)),
            static / static.sum(axis=-1, keepdims=True),
        )

    def test_latent_dependence(self, encoder, tokens):
        state = state_of(encoder, tokens, 1)
        a = _row_normalized(state_weights(state, np.zeros(8), 1.0, 0.1))
        b = _row_normalized(state_weights(state, np.ones(8), 1.0, 0.1))
        assert np.abs(a - b).max() > 0

    def test_rows_stochastic(self, encoder, tokens):
        state = state_of(encoder, tokens, 0)
        heads = _row_normalized(
            state_weights(state, np.random.default_rng(0).normal(size=8), 0.5, 0.1)
        )
        assert (heads > 0).all()
        np.testing.assert_allclose(heads.sum(axis=2), 1.0, atol=1e-9)

    def test_bad_block_rejected(self, encoder, tokens):
        with pytest.raises(InvalidInputError):
            encoder.encode_stack([tokens], [5])


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
    @pytest.mark.parametrize("widths", [(2, 8), (8, 3), (3, 2)])
    def test_encoder_for_other_widths_rejected_before_any_work(
        self, model, schedule, params, tokens, monkeypatch, widths
    ):
        encoder = ToyTextEncoder(params, *widths)
        walks = record_walks(encoder, monkeypatch)
        cdg = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5)
        with pytest.raises(InvalidInputError) as exc:
            sample_batch(model, schedule, encoder, [Chain(tokens, cdg, 0)])
        assert f"{widths}" in str(exc.value) and "(8, 8)" in str(exc.value)
        assert walks == [] and encoder._null is None

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
        # the extent alone decides a row: at R=1.0 the empty prompt, which
        # has no content word, shares R=0.0's
        distinct = {
            (chain.tokens.ids, *replaced(chain.tokens, run.masks[0])[1:])
            for chain, run in zip(chains[3:], runs[3:])
        }
        assert len(distinct) < len(grid) * len(prompts)
        # per step: every distinct chain at its positive, the guided ones at
        # their negative
        assert rows == [len(prompts) + len(distinct), len(distinct)] * schedule.steps

    def test_sweep_batch_pools_each_prompt_once(
        self, model, schedule, encoder, params, monkeypatch
    ):
        pooled: list[int] = []
        real = encoder.pool
        monkeypatch.setattr(encoder, "pool", lambda c: pooled.append(len(c)) or real(c))
        # the benchmark's sweep: 4 references, then 4 prompts x 21 ratios
        prompts = [tokenize(p, params) for p in ("a man is cooking", "a dog", "", "red car")]
        cdg = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=1.0)
        chains = [Chain(t, UNGUIDED, 0) for t in prompts] + [
            Chain(t, replace(cdg, r_deg=i / 10), 0) for i in range(21) for t in prompts
        ]
        assert len(chains) == 88
        runs = sample_batch(model, schedule, encoder, chains)
        # the 4 positives, then each distinct degraded row once, at step 0
        rows = {(c.tokens.ids, mask_extent(c.tokens, c.config.ratios)) for c in chains[4:]}
        assert pooled == [4, len(rows)]
        for chain, run in zip(chains, runs):
            alone = sample(model, schedule, encoder, chain.tokens, chain.config, chain.seed)
            np.testing.assert_array_equal(run.trajectory, alone.trajectory)

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
        # each prompt's positive once (CFG*'s is degraded), the null negative
        # once, then each degraded embedding whenever it changes
        positives = {c.tokens.ids for c in chains if c.config.mode is not GuidanceMode.CFG_STAR}
        assert sum(seen) == len(positives) + 1 + changed

    def test_mask_extent_once_per_degrading_chain(
        self, model, schedule, encoder, params, monkeypatch
    ):
        seen: list[tuple[int, ...]] = []
        real = diffusion.mask_extent

        def counting(tokens, ratios):
            seen.append(tokens.ids)
            return real(tokens, ratios)

        monkeypatch.setattr(diffusion, "mask_extent", counting)
        cdg = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5)
        prompts = [tokenize(p, params) for p in ("a man is cooking", "a cat sits on the mat")]
        # a duplicate chain is a chain too; the CFG chains do not degrade
        chains = [Chain(t, c, 0) for t in prompts for c in (CFG, cdg, cdg)]
        sample_batch(model, schedule, encoder, chains)
        assert seen == [t.ids for t in prompts for _ in range(2)]

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

    def test_per_step_batch_solves_only_uncertified_keys(
        self, model, schedule, encoder, params, monkeypatch
    ):
        events = record_certified_solves(monkeypatch)
        per_step = GuidanceConfig(
            mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5,
            reuse_first_step_mask=False,
        )
        prompts = [tokenize(p, params) for p in ("a man is cooking", "a dog", "")]
        runs = sample_batch(
            model, schedule, encoder, [Chain(t, per_step, i) for i, t in enumerate(prompts)]
        )
        # "" has no content word, so R=0.5 replaces none of it: it has no key
        keys = len(prompts) - 1
        # step 0 solves every key in one call
        kind, solved = events.pop(0)
        assert kind == "solve" and solved.shape[0] == keys
        # each later step certifies every key, then solves the keys it could
        # not certify, and only those, in at most one stacked solve
        later, solved_keys = 0, 0
        while events:
            kind, (p, unsure) = events.pop(0)
            assert kind == "certify" and p.shape[0] == keys
            later += 1
            if unsure:
                kind, solved = events.pop(0)
                assert kind == "solve"
                np.testing.assert_array_equal(solved, p[unsure])
                solved_keys += len(unsure)
        assert later == schedule.steps - 1
        assert solved_keys < later * keys  # some key was certified
        assert all(run.wpr_call_count == schedule.steps for run in runs)

    def test_per_step_chain_replacing_no_type_in_part_never_ranks(
        self, model, schedule, encoder, params, monkeypatch
    ):
        # R=0.3 of 2 content words replaces floor(0.6) = 0 of them: the mask
        # keeps every position at every step, whatever the ranking
        tokens = tokenize("red car", params)
        per_step = GuidanceConfig(
            mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.3,
            reuse_first_step_mask=False,
        )
        events = record_certified_solves(monkeypatch)
        walks = record_walks(encoder, monkeypatch)
        run = sample(model, schedule, encoder, tokens, per_step, 0)
        assert events == [] and walks == [([tokens.ids], [None])]
        # ranked as if its mask could change: a step-0 solve and a
        # certificate at every later step, to the same run
        monkeypatch.setattr(diffusion, "needs_ranking", lambda tokens, extent: True)
        ranked = sample(model, schedule, encoder, tokens, per_step, 0)
        assert [kind for kind, _ in events] == ["solve"] + ["certify"] * (schedule.steps - 1)
        np.testing.assert_array_equal(run.trajectory, ranked.trajectory)
        np.testing.assert_array_equal(run.masks, ranked.masks)
        assert run.masks.all()
        assert run.wpr_call_count == ranked.wpr_call_count == schedule.steps

    def test_unranked_chains_of_any_block_and_reuse_share_a_row(
        self, model, schedule, encoder, params, monkeypatch
    ):
        rows: list[int] = []
        real = diffusion._denoise

        def counting(model, x, sigma, m):
            rows.append(x.shape[0])
            return real(model, x, sigma, m)

        # "red car" at R=0.3 replaces no type in part, so neither its block
        # nor its mask reuse can change its mask; at R=0.5 both can
        tokens = tokenize("red car", params)
        configs = [
            GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=r,
                           lambda_block=block, reuse_first_step_mask=reuse)
            for r in (0.3, 0.5) for block in (0, 1) for reuse in (True, False)
        ]
        alone = [sample(model, schedule, encoder, tokens, c, 0) for c in configs]
        monkeypatch.setattr(diffusion, "_denoise", counting)
        runs = sample_batch(model, schedule, encoder, [Chain(tokens, c, 0) for c in configs])
        assert rows == [1 + 4, 1 + 4] * schedule.steps
        for run, ref in zip(runs, alone):
            np.testing.assert_array_equal(run.trajectory, ref.trajectory)
            np.testing.assert_array_equal(run.masks, ref.masks)
            assert run.wpr_call_count == ref.wpr_call_count

    def test_per_step_with_variance_filter_solves_every_step(
        self, model, schedule, encoder, tokens, params, monkeypatch
    ):
        shapes = recorded_solves(monkeypatch)
        monkeypatch.setattr(diffusion, "_certify", no_certificate)
        per_step = GuidanceConfig(
            mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5,
            reuse_first_step_mask=False,
        )
        keep_all = FusionConfig(v_min=0.0, v_max=1.0, enabled=True)
        run = sample(model, schedule, encoder, tokens, per_step, 0, fusion=keep_all)
        assert shapes == [(params.n_heads, len(tokens), len(tokens))] * schedule.steps
        assert run.wpr_call_count == schedule.steps

    def test_reuse_chains_and_step_zero_never_certify(
        self, model, schedule, encoder, params, monkeypatch
    ):
        monkeypatch.setattr(diffusion, "_certify", no_certificate)
        prompts = [tokenize(p, params) for p in ("a man is cooking", "a dog")]
        sample_batch(model, schedule, encoder, [
            Chain(t, GuidanceConfig(mode=mode, guidance_scale=3.0, r_deg=r), 0)
            for t in prompts for mode in (GuidanceMode.CDG, GuidanceMode.CFG_STAR)
            for r in (0.3, 1.0, 1.7)
        ])
        # a one-step chain has no later step
        one = SigmaSchedule.log_spaced(1, 10.0, 0.01)
        per_step = GuidanceConfig(
            mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5,
            reuse_first_step_mask=False,
        )
        sample(model, one, encoder, prompts[0], per_step, 0)

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
        # a lone row: the one-key weights and the one-row mask
        with pytest.raises(
            AllHeadsFilteredError,
            match=r"^variance filter rejected every head for chain 0 at sigma 10\.0$",
        ):
            sample(model, schedule, encoder, drop, cdg, 0, fusion=fusion, attention_bias_weight=0.0)

    def test_batch_encodes_each_prompt_once(self, model, schedule, params, monkeypatch):
        encoder = ToyTextEncoder(params, 8, 8)
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
        encoder = ToyTextEncoder(params, 8, 8)
        walks = record_walks(encoder, monkeypatch)
        built = []
        build = encoder._build_states
        monkeypatch.setattr(
            encoder, "_build_states",
            lambda keys, *arrays: built.extend(keys) or build(keys, *arrays),
        )
        batch = sample_batch(model, schedule, encoder, chains)
        assert len(walks) == 1
        assert sorted(built) == sorted(
            [(a.ids, 0), (a.ids, 1), (b.ids, 0)]
        )
        for chain, run in zip(chains, batch):
            alone = sample(
                model, schedule, ToyTextEncoder(params, 8, 8), chain.tokens, chain.config, chain.seed
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

    @pytest.mark.parametrize(
        "seed, message",
        [
            *[(seed, f"seed must be an int, got {seed!r}")
              for seed in (1.5, np.float64(2.0), True, np.bool_(False))],
            (-1, "seed must be >= 0"),
        ],
        ids=["float", "numpy_float", "bool", "numpy_bool", "negative"],
    )
    def test_bad_seed_rejected_before_any_work(
        self, model, schedule, params, tokens, seed, message
    ):
        encoder = ToyTextEncoder(params, 8, 8)
        cdg = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5)
        chains = [Chain(tokens, cdg, 0), Chain(tokens, cdg, seed)]
        with pytest.raises(InvalidInputError, match=f"^chain 1: {re.escape(message)}$"):
            sample_batch(model, schedule, encoder, chains)
        with pytest.raises(InvalidInputError, match=f"^chain 0: {re.escape(message)}$"):
            sample(model, schedule, encoder, tokens, cdg, seed)
        # rejected before the encoder walk, which would have stored the prompt's state
        assert encoder._states == {}

    def test_numpy_int_seed_is_an_int(self, model, schedule, encoder, tokens):
        cdg = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5)
        ref = sample(model, schedule, encoder, tokens, cdg, 3)
        run = sample(model, schedule, encoder, tokens, cdg, np.int64(3))
        assert np.array_equal(run.trajectory, ref.trajectory)
        assert np.array_equal(run.masks, ref.masks)

    def test_overflowing_attention_bias_rejected(self, model, schedule, encoder, tokens):
        # a chain that reuses its first step's mask, and one that ranks at every step
        for reuse, bias in [(True, 1e6), (False, 1e3)]:
            cdg = GuidanceConfig(
                mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5, reuse_first_step_mask=reuse
            )
            with np.errstate(all="ignore"):
                with pytest.raises(DegenerateGraphError, match="^attention weights are not finite$"):
                    sample(model, schedule, encoder, tokens, cdg, 0, attention_bias_weight=bias)


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
                degrade_row(f"row {si}.{r}", tokens[p], encode_one(encoder, tokens[p]),
                            r_deg, 1, latent)
                for r, ((p, r_deg), latent) in enumerate(zip(block, latents))
            ],
            x,
        )
        for si, (sigma, block, x, latents) in enumerate(blocks)
    ], fusion, bias


def degrade_set_of(encoder, rows) -> diffusion.DegradeSet:
    """degrade_set over rows, from the prompt states of one encode_stack
    call over their tokens and blocks, as a caller takes them."""
    _, states = encoder.encode_stack([r[1] for r in rows], [r[4] for r in rows])
    return diffusion.degrade_set(states, rows)


def _degrade_per_sigma(encoder, blocks, fusion, bias, previous):
    """degrade_rows once per sigma, its results laid end to end."""
    masks, changed, embeddings, start = [], [], [], 0
    for sigma, rows, x in blocks:
        prev = None if previous is None else previous[start : start + len(rows)]
        m, c, e = diffusion.degrade_rows(
            encoder, degrade_set_of(encoder, rows), x, sigma, fusion, bias, prev
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
        rows = degrade_set_of(encoder, [row for _, b, _ in blocks for row in b])
        x = np.concatenate([x for *_, x in blocks])
        column = np.concatenate([np.full((len(b), 1), s) for s, b, _ in blocks])
        # each call's masks once without a previous step, and once against
        # the masks of the same rows one block later, so some rows change
        try:
            first = _degrade_per_sigma(encoder, blocks, fusion, bias, None)[0]
        except AllHeadsFilteredError as exc:
            with pytest.raises(AllHeadsFilteredError, match=re.escape(str(exc))):
                diffusion.degrade_rows(encoder, rows, x, column, fusion, bias)
            return
        shifted = np.roll(first, -len(blocks[0][1]), axis=0)
        # one set for both passes: from the first call on it holds heads, so
        # the second certifies from them, against bits that are not its
        # rows' own, and still gives a full step's bits
        for previous in (None, shifted):
            expected = _degrade_per_sigma(encoder, blocks, fusion, bias, previous)
            masks, changed, e = diffusion.degrade_rows(
                encoder, rows, x, column, fusion, bias, previous
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
                encoder, rows.subset([r]), x[r : r + 1], column[r, 0], fusion, bias
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
        row = degrade_row("row", tokens, encode_one(encoder, tokens), 0.5, 1, 0)
        x = np.tile(np.random.default_rng(4).normal(size=8) * 3.0, (2, 1))
        sigmas = [0.05, 20.0]
        alone = [
            diffusion.degrade_rows(
                encoder, degrade_set_of(encoder, [row]), x[:1], s, FusionConfig(), 0.5
            )[0][0]
            for s in sigmas
        ]
        # the two sigmas rank the tokens apart, so a shared key would give
        # the second row the first one's mask
        assert (alone[0] != alone[1]).any()
        # the geometry sweep's rows: one prompt at two sigmas, each ranked
        # under its own key
        both = degrade_set_of(encoder, [row]).subset([0, 0])
        assert both.keys == [0, 1]
        masks = diffusion.degrade_rows(
            encoder, both, x, np.array(sigmas)[:, None], FusionConfig(), 0.5
        )[0]
        _assert_masks_equal(masks, np.array(alone))

    def test_all_heads_filtered_names_row_and_its_sigma(self, encoder, params):
        keep, drop = (tokenize(p, params) for p in ("a man is cooking", "a dog"))
        fusion = window_around_first_head(encoder, keep, drop)
        rows = degrade_set_of(
            encoder,
            [
                degrade_row(label, t, encode_one(encoder, t), 0.5, 1, r)
                for r, (label, t) in enumerate((("first", keep), ("second", keep), ("third", drop)))
            ],
        )
        x = np.random.default_rng(0).normal(size=(3, 8))
        column = np.array([[5.0], [2.5], [0.75]])
        with pytest.raises(AllHeadsFilteredError, match="for third at sigma 0.75"):
            diffusion.degrade_rows(encoder, rows, x, column, fusion, 0.0)

    @pytest.mark.parametrize("shape", [(2, 1), (3,), (1, 3), (3, 2)])
    def test_bad_sigma_column_rejected(self, encoder, tokens, shape):
        row = degrade_row("row", tokens, encode_one(encoder, tokens), 0.5, 1, 0)
        rows = degrade_set_of(encoder, [row]).subset([0] * 3)
        with pytest.raises(InvalidInputError):
            diffusion.degrade_rows(
                encoder, rows, np.zeros((3, 8)), np.ones(shape), FusionConfig(), 0.1
            )


CERTIFY_WORDS = "a man is cooking the dog runs in park old woman paints blue wall at dusk".split()


def _pi_rows(pi: np.ndarray, heads: int) -> np.ndarray:
    """A (1, heads, N, N) stack whose every row is pi: pi is its exact stationary
    vector, and its Doeblin coefficient is sum(pi) = 1, so the bound is ~0."""
    return np.tile(pi, (1, heads, len(pi), 1))


class TestCertificate:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_certified_rows_keep_their_solved_bits(self, model, schedule, encoder, params, data):
        bias = data.draw(st.sampled_from([0.0, DEFAULT_ATTENTION_BIAS_WEIGHT, 1.0]))

        def chain() -> Chain:
            words = data.draw(st.lists(st.sampled_from(CERTIFY_WORDS), max_size=14))
            config = GuidanceConfig(
                mode=data.draw(st.sampled_from([GuidanceMode.CDG, GuidanceMode.CFG_STAR])),
                guidance_scale=3.0, r_deg=data.draw(st.sampled_from([0.3, 0.7, 1.3, 1.7])),
                reuse_first_step_mask=False,
            )
            return Chain(tokenize(" ".join(words), params), config, data.draw(st.integers(0, 2**16)))

        chains = [chain() for _ in range(data.draw(st.integers(1, 4)))]
        certify = diffusion._certify
        rows_seen = [0]

        def checking(p, rows, previous):
            # the full step beside the certificate: every key solved, fused and masked
            y, unsure = certify(p, rows, previous)
            solved = diffusion._compute_importance(p.copy())
            bits = _masks(rows.tokens, fuse_head_stacks(solved), rows.keys, rows.extents)
            for r, k in enumerate(rows.keys):
                rows_seen[0] += 1
                if k not in unsure:
                    np.testing.assert_array_equal(bits[r], previous[r])
            return y, unsure

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diffusion, "_certify", checking)
            runs = sample_batch(model, schedule, encoder, chains, attention_bias_weight=bias)
            mp.setattr(diffusion, "_certify", certify_none)
            solved = sample_batch(model, schedule, encoder, chains, attention_bias_weight=bias)
        # every later step tried every distinct chain whose extent ranks
        ranking = set()
        for c in chains:
            extent = mask_extent(c.tokens, c.config.ratios)
            if needs_ranking(c.tokens, extent):
                ranking.add(diffusion._chain_key(c, extent, c.config.lambda_block))
        assert rows_seen[0] == len(ranking) * (schedule.steps - 1)
        for run, ref in zip(runs, solved):
            np.testing.assert_array_equal(run.trajectory, ref.trajectory)
            np.testing.assert_array_equal(run.masks, ref.masks)
            assert run.wpr_call_count == ref.wpr_call_count == schedule.steps

    def _row(self, encoder, tokens, r_deg, heads):
        rows = degrade_set_of(encoder, [
            degrade_row("row", tokens, encode_one(encoder, tokens), r_deg, 1, 0)
        ])
        return rows.subset([0], heads)

    @pytest.mark.parametrize("gap, certified", [(5e-10, False), (2e-9, True)])
    def test_near_tied_pads_certify_only_beyond_the_margin(
        self, encoder, params, tokens, gap, certified
    ):
        # R=1.3 replaces 3 of the 12 context-aggregating positions: the
        # third and fourth of them by score are two PADs a gap apart
        ctxagg = tokens.ctxagg_positions
        pi = np.zeros(len(tokens))
        pi[tokens.content_positions] = 0.1
        pi[ctxagg] = np.linspace(0.05, 0.01, len(ctxagg))
        pi[[ctxagg[-1], ctxagg[-2]]] = 0.045
        pi /= pi.sum()
        pi[ctxagg[-1]] += gap / 2
        pi[ctxagg[-2]] -= gap / 2
        h = params.n_heads
        rows = self._row(encoder, tokens, 1.3, np.tile(pi, (1, h, 1)))
        previous = build_mask(tokens, pi, map_ratio(1.3))[None]
        assert not previous[0, ctxagg[-1]] and previous[0, ctxagg[-2]]
        y, unsure = diffusion._certify(_pi_rows(pi, h), rows, previous)
        assert unsure == ([] if certified else [0])
        np.testing.assert_allclose(y[0], np.tile(pi, (h, 1)), rtol=1e-12)
        # bits that the ranking does not give never certify: the pair
        # swapped, a fourth position replaced, none, and a content one kept
        for flip in (
            [ctxagg[-1], ctxagg[-2]], [ctxagg[2]], [ctxagg[0], ctxagg[1], ctxagg[-1]],
            [tokens.content_positions[0]],
        ):
            foreign = previous.copy()
            foreign[0, flip] = ~foreign[0, flip]
            assert diffusion._certify(_pi_rows(pi, h), rows, foreign)[1] == [0]

    def test_any_previous_gives_a_full_steps_bits(self, encoder, params, monkeypatch):
        certify = diffusion._certify
        unsure_seen = []

        def recording(p, rows, previous):
            y, unsure = certify(p, rows, previous)
            unsure_seen.append(unsure)
            return y, unsure

        monkeypatch.setattr(diffusion, "_certify", recording)
        short, long = (
            tokenize(p, params)
            for p in ("a man is cooking", "the old man and the young woman cook dinner")
        )
        rows = degrade_set_of(encoder, [
            degrade_row(f"row {i}", t, encode_one(encoder, t), r_deg, 1, i)
            for i, (t, r_deg) in enumerate([(short, 0.5), (long, 1.3), (long, 2.0)])
        ])
        assert rows.keys == [0, 1, -1]
        x = np.random.default_rng(3).normal(size=(3, 8)) * 2.0
        full = diffusion.degrade_rows(encoder, rows, x, 1.0, FusionConfig(), 0.1)[0]
        assert unsure_seen == [] and rows.heads is not None
        # the set now holds heads, so each later call certifies first,
        # whatever bits it is given
        coin = np.random.default_rng(5).random(full.shape) < 0.5
        # the unranked row's bits wrong, with both keys certified, and with
        # the first key's wrong as well
        unranked_off = full.copy()
        unranked_off[2] = True
        first_off = unranked_off.copy()
        first_off[0] = ~first_off[0]
        foreign = [np.ones_like(full), ~full, np.roll(full, 1, axis=1), coin]
        for previous in foreign + [first_off, unranked_off, full]:
            keep, changed, e = diffusion.degrade_rows(
                encoder, rows, x, 1.0, FusionConfig(), 0.1, previous
            )
            _assert_masks_equal(keep, full)
            assert changed == np.flatnonzero((full != previous).any(axis=1)).tolist()
            assert (e is None) == (not changed)
        assert unsure_seen[len(foreign):] == [[0], [], []]

    def test_row_replacing_no_type_in_part_gets_no_key(
        self, encoder, params, tokens, monkeypatch
    ):
        # R=0 and R=2 replace every type wholly or not at all: the row has no
        # key and no prompt state, so a later step keeps its bits with no
        # certificate and no solve
        monkeypatch.setattr(diffusion, "_certify", no_certificate)
        for r_deg in (0.0, 2.0):
            rows = self._row(encoder, tokens, r_deg, np.empty((0, params.n_heads, len(tokens))))
            assert rows.keys == [-1] and not rows.key_states
            previous = build_mask(tokens, None, map_ratio(r_deg))[None]
            keep, changed, e = diffusion.degrade_rows(
                encoder, rows, np.zeros((1, 8)), 1.0, FusionConfig(), 0.1, previous
            )
            _assert_masks_equal(keep, previous)
            assert changed == [] and e is None

    def test_zero_doeblin_coefficient_certifies_nothing(self, encoder, params, tokens):
        # each row moves to the next position: every column has a zero, so
        # c = 0; the bound would divide by it, and must raise no warning
        n, h = len(tokens), params.n_heads
        shift = np.roll(np.eye(n), 1, axis=1)
        pi = np.full(n, 1.0 / n)
        rows = self._row(encoder, tokens, 0.5, np.tile(pi, (1, h, 1)))
        previous = build_mask(tokens, np.arange(n, 0, -1.0), map_ratio(0.5))[None]
        assert diffusion._certify(np.tile(shift, (1, h, 1, 1)), rows, previous)[1] == [0]


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
