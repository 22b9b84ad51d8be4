"""Guidance-signal geometry: denoising subspace, decoupling, interference.

The principal denoising subspace at a noise level is the top right-singular
subspace of conditional noise predictions stacked across prompts. Decoupling
is the mean squared sine of the principal angles between the guidance-delta
span and that subspace (1 = orthogonal); interference is the fraction of
delta energy falling inside it (0 = clean).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .degradation import map_ratio
from .diffusion import GmmConditionalModel, SigmaSchedule, degraded_embedding, denoise
from .encoder import TokenSequence, ToyTextEncoder
from .errors import InvalidInputError, RankDeficientError, UndefinedMetricError
from .guidance import GuidanceConfig, GuidanceMode, denoiser_to_eps
from .importance import FusionConfig
from .linalg import SvdResult, principal_angle_sines_squared, project_onto, thin_svd

_ZERO_DELTA_TOL = 1e-300


@dataclass
class PredictionStack:
    """Conditional noise predictions at one noise level, one row per prompt."""

    sigma: float
    rows: np.ndarray  # (num_prompts, d_x)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise InvalidInputError("rows must be 2-d")
        if not np.isfinite(self.rows).all():
            raise InvalidInputError("rows contain non-finite entries")


def estimate_subspace(stack: PredictionStack, k: int) -> np.ndarray:
    """Orthonormal basis (d_x x k) of the top-k right-singular subspace."""
    return _top_subspace(thin_svd(stack.rows), k)


def _top_subspace(svd: SvdResult, k: int) -> np.ndarray:
    if k < 1 or k > svd.rank:
        raise RankDeficientError(f"k={k} exceeds numerical rank {svd.rank}")
    return svd.vt[:k].T.copy()


def _column_space_basis(delta: np.ndarray) -> np.ndarray:
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim == 1:
        delta = delta[:, None]
    norm = np.linalg.norm(delta)
    if norm <= _ZERO_DELTA_TOL:
        raise UndefinedMetricError("guidance delta is zero")
    svd = thin_svd(delta)
    rank = max(svd.rank, 1)
    return svd.u[:, :rank]


def decoupling(delta: np.ndarray, s_c: np.ndarray) -> float:
    """Mean sin^2 of the principal angles between span(delta) and span(s_c)."""
    basis = _column_space_basis(delta)
    sines = principal_angle_sines_squared(basis, s_c)
    return float(np.mean(sines))


def interference(delta: np.ndarray, s_c: np.ndarray) -> float:
    """Fraction of delta's energy projected into span(s_c)."""
    d = np.asarray(delta, dtype=np.float64)
    if d.ndim == 1:
        d = d[:, None]
    total = float(np.sum(d * d))
    if total <= _ZERO_DELTA_TOL:
        raise UndefinedMetricError("guidance delta is zero")
    proj = project_onto(s_c, d)
    return min(float(np.sum(proj * proj)) / total, 1.0)


def energy_rank(singular_values: np.ndarray, energy: float = 0.9) -> int:
    """Smallest k whose leading singular values capture the energy fraction."""
    sq = np.asarray(singular_values, dtype=np.float64) ** 2
    total = sq.sum()
    if total == 0:
        raise RankDeficientError("all singular values are zero")
    cum = np.cumsum(sq) / total
    return int(np.searchsorted(cum, energy) + 1)


@dataclass
class GeometryReport:
    """Per-(sigma, method) metric records plus per-prompt detail."""

    records: list[dict] = field(default_factory=list)
    detail: list[dict] = field(default_factory=list)


def run_geometry_sweep(
    model: GmmConditionalModel,
    schedule: SigmaSchedule,
    encoder: ToyTextEncoder,
    prompts_tokens: list[TokenSequence],
    config_cfg: GuidanceConfig,
    config_cdg: GuidanceConfig,
    k: int | None = None,
    seed: int = 0,
    fusion: FusionConfig | None = None,
    attention_bias_weight: float = 0.1,
) -> GeometryReport:
    """Decoupling/interference of CFG vs CDG deltas across the sigma schedule.

    At each sigma one latent is drawn per prompt (shared by both methods),
    the denoising subspace is estimated from the stacked conditional noise
    predictions, and per-prompt metrics are averaged. Zero deltas are
    skipped and reported through num_valid_prompts. The subspace dimension
    defaults to the smallest k capturing 90% of squared singular-value mass,
    capped at num_prompts - 1.
    """
    if config_cfg.mode is not GuidanceMode.CFG or config_cdg.mode is not GuidanceMode.CDG:
        raise InvalidInputError("geometry compares a CFG config with a CDG config")
    if config_cfg.guidance_scale != config_cdg.guidance_scale:
        raise InvalidInputError("both methods must share the guidance scale")
    n_prompts = len(prompts_tokens)
    if n_prompts < 2:
        raise InvalidInputError("need at least 2 prompts")
    conditions = [encoder.encode(t) for t in prompts_tokens]
    e_cs = [encoder.pool(c, model.d_c) for c in conditions]
    e_null = encoder.pool(encoder.null_condition(), model.d_c)
    ratios = map_ratio(config_cdg.r_deg)
    states = [
        None if ratios.r_deg == 1.0
        else encoder.prompt_state(t, config_cdg.lambda_block, model.d_x)
        for t in prompts_tokens
    ]

    report = GeometryReport()
    for si, sigma in enumerate(schedule.sigmas[:-1]):
        lat = [
            np.random.default_rng([seed, si, p]).normal(size=model.d_x) * sigma
            for p in range(n_prompts)
        ]
        eps_c = np.stack(
            [
                denoiser_to_eps(denoise(model, lat[p], sigma, e_cs[p]), lat[p], sigma)
                for p in range(n_prompts)
            ]
        )
        svd = thin_svd(eps_c)
        k_eff = k if k is not None else min(energy_rank(svd.s), n_prompts - 1)
        basis = _top_subspace(svd, min(k_eff, svd.rank))

        for name, method in (("cfg", config_cfg), ("cdg", config_cdg)):
            decs, intfs, deltas = [], [], []
            for p in range(n_prompts):
                if method.mode is GuidanceMode.CFG:
                    e_neg = e_null
                else:
                    _, e_neg = degraded_embedding(
                        encoder, prompts_tokens[p], conditions[p], ratios,
                        states[p], lat[p], sigma, model.d_c,
                        fusion, attention_bias_weight,
                    )
                eps_neg = denoiser_to_eps(
                    denoise(model, lat[p], sigma, e_neg), lat[p], sigma
                )
                delta = eps_c[p] - eps_neg
                try:
                    dec = decoupling(delta, basis)
                    intf = interference(delta, basis)
                except UndefinedMetricError:
                    report.detail.append(
                        {"sigma": sigma, "method": name, "prompt_index": p,
                         "decoupling": None, "interference": None,
                         "note": "zero delta"}
                    )
                    continue
                decs.append(dec)
                intfs.append(intf)
                deltas.append(delta)
                report.detail.append(
                    {"sigma": sigma, "method": name, "prompt_index": p,
                     "decoupling": dec, "interference": intf, "note": ""}
                )
            rec = {
                "sigma": sigma,
                "method": name,
                "decoupling_mean": float(np.mean(decs)) if decs else None,
                "interference_mean": float(np.mean(intfs)) if intfs else None,
                "num_valid_prompts": len(decs),
            }
            # pooled variant: span of all valid deltas against the same basis
            if deltas:
                pooled = np.stack(deltas).T  # (d_x, valid)
                rec["decoupling_pooled"] = decoupling(pooled, basis)
                rec["interference_pooled"] = interference(pooled, basis)
            else:
                rec["decoupling_pooled"] = None
                rec["interference_pooled"] = None
            report.records.append(rec)
    return report
