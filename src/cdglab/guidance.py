"""Guided-prediction arithmetic: CFG, CDG, the CFG* probe, and space conversions.

All combinations share one affine form, positive + (w-1) * (positive -
negative), which commutes with the linear maps between denoiser output,
noise prediction, and score, so the choice of working space is observable
only through rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError


class GuidanceMode(Enum):
    NONE = "none"
    CFG = "cfg"
    CDG = "cdg"
    CFG_STAR = "cfg_star"

    @property
    def uses_degradation(self) -> bool:
        return self in (GuidanceMode.CDG, GuidanceMode.CFG_STAR)


@dataclass(frozen=True)
class GuidanceConfig:
    mode: GuidanceMode = GuidanceMode.CFG
    guidance_scale: float = 3.0
    r_deg: float | None = None
    lambda_block: int = 1
    reuse_first_step_mask: bool = True

    def __post_init__(self):
        # written so that NaN fails too: nan < 1.0 is False
        if not (math.isfinite(self.guidance_scale) and self.guidance_scale >= 1.0):
            raise InvalidInputError("guidance_scale must be finite and >= 1")
        if self.mode.uses_degradation and self.r_deg is None:
            raise InvalidInputError(f"mode {self.mode.value} requires r_deg")
        if not self.mode.uses_degradation and self.r_deg is not None:
            raise InvalidInputError(f"mode {self.mode.value} does not take r_deg")


@dataclass
class Prediction:
    """A denoiser output (or its noise form) at one noise level."""

    value: np.ndarray
    sigma: float


def _check_pair(a: Prediction, b: Prediction) -> None:
    if a.sigma != b.sigma:
        raise InvalidInputError(f"sigma mismatch: {a.sigma} vs {b.sigma}")
    if a.value.shape != b.value.shape:
        raise InvalidInputError("prediction shapes differ")


def _combine(positive: Prediction, negative: Prediction, w: float) -> Prediction:
    _check_pair(positive, negative)
    if w == 1.0:
        return Prediction(value=positive.value.copy(), sigma=positive.sigma)
    value = positive.value + (w - 1.0) * (positive.value - negative.value)
    return Prediction(value=value, sigma=positive.sigma)


def combine_cfg(cond: Prediction, uncond: Prediction, w: float) -> Prediction:
    """Extrapolate from the unconditional toward the conditional prediction."""
    return _combine(cond, uncond, w)


def combine_cdg(cond: Prediction, degraded: Prediction, w: float) -> Prediction:
    """Like CFG, but the negative is the degraded-condition prediction."""
    return _combine(cond, degraded, w)


def combine_cfg_star(degraded: Prediction, uncond: Prediction, w: float) -> Prediction:
    """Probe variant: the degraded condition plays the positive role."""
    return _combine(degraded, uncond, w)


def guidance_delta(cond: Prediction, negative: Prediction) -> np.ndarray:
    """Difference of noise predictions; the direction scaled by (w - 1)."""
    _check_pair(cond, negative)
    return cond.value - negative.value


def denoiser_to_eps(d_value: np.ndarray, x: np.ndarray, sigma: float) -> np.ndarray:
    return (x - d_value) / sigma


def eps_to_denoiser(eps: np.ndarray, x: np.ndarray, sigma: float) -> np.ndarray:
    return x - sigma * eps


def denoiser_to_score(d_value: np.ndarray, x: np.ndarray, sigma: float) -> np.ndarray:
    return (d_value - x) / (sigma * sigma)
