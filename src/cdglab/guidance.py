"""Guided-prediction arithmetic: CFG, CDG, the CFG* probe, and space conversions.

All three modes share one affine form, combine(positive, negative, w) =
positive + (w-1) * (positive - negative), which commutes with the linear
maps between denoiser output, noise prediction, and score, so the choice of
working space is observable only through rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .degradation import DegradationRatios, map_ratio
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
    # map_ratio(r_deg) for the degradation modes, else None; derived once here
    ratios: DegradationRatios | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # written so that NaN fails too: nan < 1.0 is False
        if not (math.isfinite(self.guidance_scale) and self.guidance_scale >= 1.0):
            raise InvalidInputError("guidance_scale must be finite and >= 1")
        ratios = None
        if self.mode.uses_degradation:
            if self.r_deg is None:
                raise InvalidInputError(f"mode {self.mode.value} requires r_deg")
            ratios = map_ratio(self.r_deg)  # raises InvalidRatioError outside [0, 2]
        elif self.r_deg is not None:
            raise InvalidInputError(f"mode {self.mode.value} does not take r_deg")
        object.__setattr__(self, "ratios", ratios)


def combine(
    positive: np.ndarray, negative: np.ndarray, w: float | np.ndarray
) -> np.ndarray:
    """Guided prediction positive + (w - 1) * (positive - negative).

    The guidance mode only picks the roles: CFG contrasts the prompt with the
    null condition, CDG with the degraded prompt, and CFG* the degraded prompt
    with the null condition. w is a scalar or a (G, 1) column of per-row
    scales for a (G, d) stack of predictions. At w = 1 the guided prediction
    is the positive one; this form gives it up to the sign of a zero.
    """
    if positive.shape != negative.shape:
        raise InvalidInputError("prediction shapes differ")
    return positive + (w - 1.0) * (positive - negative)


def denoiser_to_eps(d_value: np.ndarray, x: np.ndarray, sigma: float) -> np.ndarray:
    return (x - d_value) / sigma
