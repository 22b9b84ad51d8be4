"""Guided-prediction arithmetic and space-conversion identities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdglab.errors import InvalidInputError
from cdglab.guidance import (
    GuidanceConfig,
    GuidanceMode,
    Prediction,
    combine_cdg,
    combine_cfg,
    combine_cfg_star,
    denoiser_to_eps,
    denoiser_to_score,
    eps_to_denoiser,
    guidance_delta,
)


def _pred(values, sigma=1.0) -> Prediction:
    return Prediction(value=np.asarray(values, dtype=np.float64), sigma=sigma)


class TestCombine:
    def test_cfg_identity_at_unit_scale(self):
        cond, uncond = _pred([1.0, 2.0]), _pred([0.0, 5.0])
        np.testing.assert_array_equal(combine_cfg(cond, uncond, 1.0).value, cond.value)

    def test_cfg_equal_predictions(self):
        cond = _pred([3.0, -1.0])
        out = combine_cfg(cond, _pred([3.0, -1.0]), 9.0)
        np.testing.assert_allclose(out.value, cond.value, atol=1e-12)

    def test_cfg_arithmetic(self):
        out = combine_cfg(_pred([1.0, 0.0]), _pred([0.0, 0.0]), 7.0)
        np.testing.assert_allclose(out.value, [7.0, 0.0], atol=1e-12)

    def test_cdg_arithmetic(self):
        out = combine_cdg(_pred([1.0, 1.0]), _pred([1.0, 0.0]), 3.0)
        np.testing.assert_allclose(out.value, [1.0, 3.0], atol=1e-12)

    def test_cdg_with_null_negative_equals_cfg(self):
        cond, null = _pred([2.0, 1.0]), _pred([0.5, -0.5])
        np.testing.assert_array_equal(
            combine_cdg(cond, null, 4.0).value, combine_cfg(cond, null, 4.0).value
        )

    def test_cfg_star_reductions(self):
        cond, uncond = _pred([2.0, 1.0]), _pred([0.5, -0.5])
        # degraded == cond (no degradation) collapses to CFG
        np.testing.assert_array_equal(
            combine_cfg_star(cond, uncond, 4.0).value,
            combine_cfg(cond, uncond, 4.0).value,
        )
        # w=1 returns the degraded prediction itself
        np.testing.assert_array_equal(
            combine_cfg_star(uncond, cond, 1.0).value, uncond.value
        )
        # degraded == uncond collapses to the unconditional prediction
        np.testing.assert_allclose(
            combine_cfg_star(uncond, uncond, 4.0).value, uncond.value, atol=1e-12
        )

    def test_sigma_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            combine_cfg(_pred([1.0], sigma=1.0), _pred([1.0], sigma=2.0), 2.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            combine_cfg(_pred([1.0]), _pred([1.0, 2.0]), 2.0)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        w=st.floats(1.0, 10.0, allow_nan=False),
        a=st.floats(-3.0, 3.0, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
        b=st.floats(-3.0, 3.0, allow_nan=False),
    )
    def test_affine_equivariance(self, seed, w, a, b):
        rng = np.random.default_rng(seed)
        cond, neg = _pred(rng.normal(size=4)), _pred(rng.normal(size=4))
        direct = combine_cfg(
            _pred(a * cond.value + b), _pred(a * neg.value + b), w
        ).value
        mapped = a * combine_cfg(cond, neg, w).value + b
        np.testing.assert_allclose(direct, mapped, atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), w=st.floats(1.0, 10.0, allow_nan=False))
    def test_delta_identity(self, seed, w):
        rng = np.random.default_rng(seed)
        cond, neg = _pred(rng.normal(size=4)), _pred(rng.normal(size=4))
        delta = guidance_delta(cond, neg)
        np.testing.assert_allclose(
            combine_cfg(cond, neg, w).value,
            cond.value + (w - 1.0) * delta,
            atol=1e-12,
        )

    def test_zero_delta_for_equal_predictions(self):
        cond = _pred([1.0, 2.0])
        np.testing.assert_array_equal(
            guidance_delta(cond, _pred([1.0, 2.0])), [0.0, 0.0]
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
        combined_d = combine_cfg(
            Prediction(d_cond, sigma), Prediction(d_neg, sigma), w
        ).value
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
