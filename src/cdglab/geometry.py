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
from .diffusion import (
    DegradeRow,
    GmmConditionalModel,
    SigmaSchedule,
    degrade_rows,
    denoise,
)
from .encoder import TokenSequence, ToyTextEncoder
from .errors import InvalidInputError, RankDeficientError, UndefinedMetricError
from .guidance import denoiser_to_eps
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


_METHODS = ("cfg", "cdg")


def _sigma_records(
    report: GeometryReport, sigma: float, deltas: np.ndarray, basis: np.ndarray
) -> None:
    """Per-prompt and pooled metrics at one sigma, appended to report.

    deltas (len(_METHODS) * num_prompts, d_x) holds each method's per-prompt
    deltas in _METHODS order. Every per-prompt delta is projected in one
    stacked call. A single vector's decoupling is exactly 1 - interference,
    so the per-prompt values need no decomposition; only the pooled pair
    does.
    """
    n_prompts = len(deltas) // len(_METHODS)
    totals = (deltas * deltas).sum(axis=1).tolist()
    proj = project_onto(basis, deltas[:, :, None])[..., 0]
    energies = (proj * proj).sum(axis=1).tolist()
    for m, method in enumerate(_METHODS):
        valid, intfs = [], []
        for p in range(n_prompts):
            i = m * n_prompts + p
            if totals[i] <= _ZERO_DELTA_TOL:
                dec = intf = None
            else:
                intf = min(energies[i] / totals[i], 1.0)
                valid.append(p)
                intfs.append(intf)
                dec = 1.0 - intf
            report.detail.append(
                {"sigma": sigma, "method": method, "prompt_index": p, "decoupling": dec,
                 "interference": intf, "note": "zero delta" if intf is None else ""}
            )
        # (d_x, valid): the span of all valid deltas
        pooled = deltas[m * n_prompts : (m + 1) * n_prompts][valid].T
        report.records.append({
            "sigma": sigma,
            "method": method,
            "decoupling_mean": 1.0 - float(np.mean(intfs)) if valid else None,
            "interference_mean": float(np.mean(intfs)) if valid else None,
            "num_valid_prompts": len(valid),
            "decoupling_pooled": decoupling(pooled, basis) if valid else None,
            "interference_pooled": interference(pooled, basis) if valid else None,
        })


def run_geometry_sweep(
    model: GmmConditionalModel,
    schedule: SigmaSchedule,
    encoder: ToyTextEncoder,
    prompts_tokens: list[TokenSequence],
    r_deg: float,
    lambda_block: int = 1,
    k: int | None = None,
    seed: int = 0,
    fusion: FusionConfig | None = None,
    attention_bias_weight: float = 0.1,
) -> GeometryReport:
    """Decoupling/interference of CFG vs CDG deltas across the sigma schedule.

    The deltas are unscaled: the conditional prediction minus the null one
    (CFG), or minus that of the prompt degraded at r_deg, ranked at
    lambda_block (CDG). At each sigma one latent is drawn per prompt, from
    its own seed [seed, sigma index, prompt index], the denoising subspace
    is estimated from the stacked conditional noise predictions, and
    per-prompt metrics are averaged. Zero deltas are skipped and reported
    through num_valid_prompts. The subspace dimension defaults to the
    smallest k capturing 90% of squared singular-value mass, capped at
    num_prompts - 1.

    The sweep is one pass over every (sigma, prompt) row, sigma-major: one
    latent stack, three denoise calls (conditional, null, degraded) with a
    column of per-row sigmas, one stacked SVD of the conditional
    predictions, and one stacked projection of the per-prompt deltas per
    sigma. The degrade step runs once per sigma, so only one sigma's
    attention weights are held at a time. Each row's arithmetic is that of
    a per-sigma computation, so the report does not depend on the
    stacking.
    """
    n_prompts = len(prompts_tokens)
    if n_prompts < 2:
        raise InvalidInputError("need at least 2 prompts")
    ratios = map_ratio(r_deg)
    conditions = [encoder.encode(t) for t in prompts_tokens]
    e_c = np.stack([encoder.pool(c, model.d_c) for c in conditions])
    e_null = encoder.pool(encoder.null_condition(), model.d_c)
    rows = [
        DegradeRow(
            f"prompt {p}", t, c, ratios,
            None if ratios.r_deg == 1.0
            else encoder.prompt_state(t, lambda_block, model.d_x),
        )
        for p, (t, c) in enumerate(zip(prompts_tokens, conditions))
    ]

    sigmas = schedule.sigmas[:-1]
    n_sigmas = len(sigmas)
    sigma_col = np.repeat(sigmas, n_prompts)[:, None]
    x = np.stack([
        np.random.default_rng([seed, si, p]).normal(size=model.d_x)
        for si in range(n_sigmas) for p in range(n_prompts)
    ]) * sigma_col
    e_deg = np.concatenate([
        degrade_rows(
            encoder, rows, x[si * n_prompts : (si + 1) * n_prompts], sigma,
            model.d_c, fusion, attention_bias_weight,
        )[2]
        for si, sigma in enumerate(sigmas)
    ])
    # every embedding is one row per latent, so a negative equal to a
    # prompt's embedding gives delta 0
    eps_c, eps_null, eps_deg = (
        denoiser_to_eps(denoise(model, x, sigma_col, e), x, sigma_col)
        for e in (
            np.tile(e_c, (n_sigmas, 1)), np.tile(e_null, (len(x), 1)), e_deg
        )
    )
    stack_shape = (n_sigmas, n_prompts, model.d_x)
    svd = thin_svd(eps_c.reshape(stack_shape))
    # (S, len(_METHODS) * P, d_x): each sigma's CFG deltas, then its CDG ones
    deltas = np.concatenate(
        [(eps_c - eps_neg).reshape(stack_shape) for eps_neg in (eps_null, eps_deg)],
        axis=1,
    )

    report = GeometryReport()
    for si, sigma in enumerate(sigmas):
        svd_at = svd[si]
        k_eff = k if k is not None else min(energy_rank(svd_at.s), n_prompts - 1)
        basis = _top_subspace(svd_at, min(k_eff, svd_at.rank))
        _sigma_records(report, sigma, deltas[si], basis)
    return report
