"""Guided-prediction arithmetic and space-conversion identities."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdglab.degradation import map_ratio
from cdglab.errors import InvalidInputError, InvalidRatioError
from cdglab.guidance import (
    GuidanceConfig,
    GuidanceMode,
    combine,
    denoiser_to_eps,
)
from oracles import denoiser_to_score, eps_to_denoiser


def _arr(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


class TestCombine:
    def test_cfg_identity_at_unit_scale(self):
        cond, uncond = _arr([1.0, 2.0]), _arr([0.0, 5.0])
        np.testing.assert_array_equal(combine(cond, uncond, 1.0), cond)

    def test_cfg_equal_predictions(self):
        cond = _arr([3.0, -1.0])
        out = combine(cond, _arr([3.0, -1.0]), 9.0)
        np.testing.assert_allclose(out, cond, atol=1e-12)

    def test_cfg_arithmetic(self):
        out = combine(_arr([1.0, 0.0]), _arr([0.0, 0.0]), 7.0)
        np.testing.assert_allclose(out, [7.0, 0.0], atol=1e-12)

    def test_cdg_arithmetic(self):
        out = combine(_arr([1.0, 1.0]), _arr([1.0, 0.0]), 3.0)
        np.testing.assert_allclose(out, [1.0, 3.0], atol=1e-12)

    def test_cfg_star_reductions(self):
        cond, uncond = _arr([2.0, 1.0]), _arr([0.5, -0.5])
        # w=1 returns the degraded (positive) prediction itself
        np.testing.assert_array_equal(combine(uncond, cond, 1.0), uncond)
        # degraded == uncond collapses to the unconditional prediction
        np.testing.assert_allclose(
            combine(uncond, uncond, 4.0), uncond, atol=1e-12
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            combine(_arr([1.0]), _arr([1.0, 2.0]), 2.0)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 6))
    def test_scale_column_matches_rows(self, seed, rows):
        rng = np.random.default_rng(seed)
        pos, neg = rng.normal(size=(rows, 4)), rng.normal(size=(rows, 4))
        w = rng.uniform(1.0, 10.0, size=rows)
        batched = combine(pos, neg, w[:, None])
        for g in range(rows):
            np.testing.assert_array_equal(
                batched[g], combine(pos[g], neg[g], float(w[g]))
            )

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        w=st.floats(1.0, 10.0, allow_nan=False),
        a=st.floats(-3.0, 3.0, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
        b=st.floats(-3.0, 3.0, allow_nan=False),
    )
    def test_affine_equivariance(self, seed, w, a, b):
        rng = np.random.default_rng(seed)
        cond, neg = rng.normal(size=4), rng.normal(size=4)
        direct = combine(a * cond + b, a * neg + b, w)
        mapped = a * combine(cond, neg, w) + b
        np.testing.assert_allclose(direct, mapped, atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), w=st.floats(1.0, 10.0, allow_nan=False))
    def test_delta_identity(self, seed, w):
        rng = np.random.default_rng(seed)
        cond, neg = rng.normal(size=4), rng.normal(size=4)
        delta = cond - neg
        np.testing.assert_allclose(
            combine(cond, neg, w), cond + (w - 1.0) * delta, atol=1e-12
        )


class TestSpaceConversions:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        sigma=st.floats(0.05, 5.0, allow_nan=False),
        w=st.floats(1.0, 10.0, allow_nan=False),
    )
    def test_denoiser_vs_score_space_combination(self, seed, sigma, w):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=4)
        d_cond, d_neg = rng.normal(size=4), rng.normal(size=4)
        combined_d = combine(d_cond, d_neg, w)
        via_d = denoiser_to_score(combined_d, x, sigma)
        s_cond = denoiser_to_score(d_cond, x, sigma)
        s_neg = denoiser_to_score(d_neg, x, sigma)
        via_s = s_cond + (w - 1.0) * (s_cond - s_neg)
        np.testing.assert_allclose(via_d, via_s, atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), sigma=st.floats(0.05, 5.0, allow_nan=False))
    def test_eps_roundtrip(self, seed, sigma):
        rng = np.random.default_rng(seed)
        x, d = rng.normal(size=4), rng.normal(size=4)
        eps = denoiser_to_eps(d, x, sigma)
        np.testing.assert_allclose(eps_to_denoiser(eps, x, sigma), d, atol=1e-12)


class TestGuidanceConfig:
    def test_scale_below_one_rejected(self):
        with pytest.raises(InvalidInputError):
            GuidanceConfig(mode=GuidanceMode.CFG, guidance_scale=0.5)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, scale):
        # nan < 1.0 is False, so a plain lower-bound check lets NaN through
        with pytest.raises(InvalidInputError):
            GuidanceConfig(mode=GuidanceMode.CFG, guidance_scale=scale)

    def test_degradation_mode_requires_ratio(self):
        with pytest.raises(InvalidInputError):
            GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=2.0)
        with pytest.raises(InvalidInputError):
            GuidanceConfig(mode=GuidanceMode.CFG_STAR, guidance_scale=2.0)

    def test_plain_mode_rejects_ratio(self):
        with pytest.raises(InvalidInputError):
            GuidanceConfig(mode=GuidanceMode.CFG, guidance_scale=2.0, r_deg=1.0)

    def test_valid_configs(self):
        GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=1.0)
        GuidanceConfig(mode=GuidanceMode.NONE, guidance_scale=1.0)

    @pytest.mark.parametrize("mode", [GuidanceMode.CDG, GuidanceMode.CFG_STAR])
    @pytest.mark.parametrize("r_deg", [-0.1, 2.5, float("nan"), float("inf")])
    def test_bad_ratio_rejected_at_construction(self, mode, r_deg):
        # before the prompt is encoded, not inside the sampler
        with pytest.raises(InvalidRatioError):
            GuidanceConfig(mode=mode, guidance_scale=3.0, r_deg=r_deg)

    @pytest.mark.parametrize("r_deg", [0.0, 0.3, 1.0, 1.7, 2.0])
    def test_ratios_derived_once(self, r_deg):
        config = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=r_deg)
        assert config.ratios == map_ratio(r_deg)
        assert config.ratios is config.ratios
        assert replace(config, r_deg=0.5).ratios == map_ratio(0.5)
        with pytest.raises(InvalidRatioError):
            replace(config, r_deg=2.5)
        assert GuidanceConfig(mode=GuidanceMode.CFG).ratios is None
