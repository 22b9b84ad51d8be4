"""Toy conditional diffusion with an analytically exact denoiser.

The data distribution given a pooled condition embedding e is a Gaussian
mixture whose component means are linear in e. The posterior-mean denoiser
is therefore available in closed form, and sampling integrates the
probability-flow ODE dx = -sigma * score dsigma with Euler steps over a
decreasing sigma schedule. The guided sampling loop integrates a batch of
chains at once and supports CFG, CDG, and CFG*, with one-time or per-step
mask computation.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .degradation import (
    DegradationMask,
    DegradationRatios,
    apply_mask,
    build_mask,
    content_boundary_mask,
    map_ratio,
)
from .encoder import Condition, TokenSequence, ToyTextEncoder
from .errors import InvalidInputError, NumericalError
from .guidance import (
    GuidanceConfig,
    GuidanceMode,
    Prediction,
    combine_cdg,
    combine_cfg,
    combine_cfg_star,
    denoiser_to_eps,
)
from .importance import (
    AttentionMap,
    FusionConfig,
    ImportanceScores,
    _fuse_stack,
    _stationary_scores,
    fuse_heads,
    wpr_all_heads,
)

DEFAULT_ATTENTION_BIAS_WEIGHT = 0.1


@dataclass
class GmmConditionalModel:
    """Condition-dependent Gaussian mixture: component j is N(M_j e, s_j^2 I)."""

    maps: np.ndarray  # (J, d_x, d_c)
    spreads: np.ndarray  # (J,) isotropic stds, > 0
    weights: np.ndarray  # (J,) summing to 1
    seed: int = 0

    def __post_init__(self):
        self.maps = np.asarray(self.maps, dtype=np.float64)
        self.spreads = np.asarray(self.spreads, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.maps.ndim != 3:
            raise InvalidInputError("maps must have shape (J, d_x, d_c)")
        j = self.maps.shape[0]
        if self.spreads.shape != (j,) or self.weights.shape != (j,):
            raise InvalidInputError("spreads/weights must have one entry per component")
        if (self.spreads <= 0).any():
            raise InvalidInputError("spreads must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-12 or (self.weights < 0).any():
            raise InvalidInputError("weights must be nonnegative and sum to 1")

    @property
    def n_components(self) -> int:
        return self.maps.shape[0]

    @property
    def d_x(self) -> int:
        return self.maps.shape[1]

    @property
    def d_c(self) -> int:
        return self.maps.shape[2]

    def means(self, e: np.ndarray) -> np.ndarray:
        """Component means: (J, d_x) for e of shape (d_c,), (B, J, d_x) for (B, d_c).

        The batched form is a stack of one matrix-vector product per row and
        component, so a row's means do not depend on the rest of the batch.
        """
        e = np.asarray(e, dtype=np.float64)
        if e.ndim == 1:
            return self.maps @ e
        return (self.maps @ e[:, None, :, None])[..., 0]

    @classmethod
    def random(
        cls,
        n_components: int,
        d_x: int,
        d_c: int,
        seed: int = 0,
        spread_range: tuple[float, float] = (0.3, 1.0),
    ) -> "GmmConditionalModel":
        rng = np.random.default_rng([seed, 2])
        maps = rng.normal(size=(n_components, d_x, d_c)) / np.sqrt(d_c)
        spreads = rng.uniform(*spread_range, size=n_components)
        weights = rng.uniform(0.5, 1.5, size=n_components)
        weights /= weights.sum()
        return cls(maps=maps, spreads=spreads, weights=weights, seed=seed)


@dataclass(frozen=True)
class SigmaSchedule:
    """Strictly decreasing positive noise levels followed by a terminal zero."""

    sigmas: tuple[float, ...]

    def __post_init__(self):
        s = self.sigmas
        if len(s) < 2 or s[-1] != 0.0:
            raise InvalidInputError("schedule needs at least one sigma and terminal 0")
        if any(a <= b for a, b in zip(s, s[1:])) or s[-2] <= 0.0:
            raise InvalidInputError("sigmas must be strictly decreasing and positive")

    @property
    def steps(self) -> int:
        return len(self.sigmas) - 1

    @property
    def sigma_max(self) -> float:
        return self.sigmas[0]

    @classmethod
    def log_spaced(
        cls, steps: int = 28, sigma_max: float = 10.0, sigma_min: float = 0.01
    ) -> "SigmaSchedule":
        grid = np.geomspace(sigma_max, sigma_min, steps)
        return cls(sigmas=tuple(float(s) for s in grid) + (0.0,))


def _posterior_stats(
    model: GmmConditionalModel, x: np.ndarray, sigma: float, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Log joint weights (..., J) and per-component posterior means (..., J, d_x).

    e is one embedding (d_c,) shared by every latent, or one per latent (B, d_c).
    """
    m = model.means(e)  # (J, d_x) or (B, J, d_x)
    var = model.spreads**2 + sigma * sigma  # (J,)
    xe = x[..., None, :]  # (..., 1, d_x)
    diff = xe - m
    sq = (diff * diff).sum(axis=-1)  # (..., J)
    logw = (
        np.log(model.weights)
        - 0.5 * model.d_x * np.log(2.0 * np.pi * var)
        - sq / (2.0 * var)
    )
    comp = (model.spreads**2)[:, None] * xe + (sigma * sigma) * m
    comp = comp / var[:, None]
    return logw, comp


def denoise(
    model: GmmConditionalModel, x: np.ndarray, sigma: float, e: np.ndarray
) -> np.ndarray:
    """Exact posterior mean E[x0 | x_sigma = x, e]; vectorized over leading axes."""
    if sigma <= 0:
        raise InvalidInputError("sigma must be positive")
    x = np.asarray(x, dtype=np.float64)
    logw, comp = _posterior_stats(model, x, sigma, e)
    logw = logw - logw.max(axis=-1, keepdims=True)
    g = np.exp(logw)
    g = g / g.sum(axis=-1, keepdims=True)
    return (g[..., None] * comp).sum(axis=-2)


def log_density(
    model: GmmConditionalModel, x: np.ndarray, sigma: float, e: np.ndarray
) -> np.ndarray:
    """log p(x; sigma | e) of the sigma-smoothed mixture."""
    x = np.asarray(x, dtype=np.float64)
    logw, _ = _posterior_stats(model, x, sigma, e)
    peak = logw.max(axis=-1, keepdims=True)
    out = peak[..., 0] + np.log(np.exp(logw - peak).sum(axis=-1))
    return out


def score(
    model: GmmConditionalModel, x: np.ndarray, sigma: float, e: np.ndarray
) -> np.ndarray:
    """Score of the smoothed density via the denoiser: (D(x) - x) / sigma^2."""
    x = np.asarray(x, dtype=np.float64)
    return (denoise(model, x, sigma, e) - x) / (sigma * sigma)


_BIAS_MAPS: dict[tuple[int, int, int], np.ndarray] = {}


def _state_bias_map(encoder: ToyTextEncoder, d_x: int) -> np.ndarray:
    key = (encoder.params.seed, encoder.params.d_model, d_x)
    if key not in _BIAS_MAPS:
        rng = np.random.default_rng([encoder.params.seed, 3, d_x])
        _BIAS_MAPS[key] = rng.normal(
            size=(encoder.params.d_model, d_x + 1)
        ) / np.sqrt(d_x + 1)
    return _BIAS_MAPS[key]


def attention_provider(
    encoder: ToyTextEncoder,
    tokens: TokenSequence,
    x: np.ndarray,
    sigma: float,
    lambda_block: int,
    bias_weight: float = DEFAULT_ATTENTION_BIAS_WEIGHT,
) -> AttentionMap:
    """Self-attention at the intervention block, conditioned on the latent state.

    A seeded linear map of (x, sigma), scaled by bias_weight, is added to
    every query row, so the extracted map varies with the denoising state.
    With bias_weight 0 this is exactly the static encoder attention.
    """
    if lambda_block < 0 or lambda_block >= encoder.params.n_blocks:
        raise InvalidInputError(f"lambda_block {lambda_block} out of range")
    bias = None
    if bias_weight != 0.0:
        x = np.asarray(x, dtype=np.float64).ravel()
        z = np.concatenate([x, [sigma]])
        bias = bias_weight * (_state_bias_map(encoder, x.size) @ z)
    attn = encoder.attention_at_block(tokens, lambda_block, bias)
    # softmax output is strictly positive and finite by construction, so the
    # constructor's validation pass is skipped on this hot path
    amap = AttentionMap.__new__(AttentionMap)
    amap.heads = attn
    return amap


@dataclass
class SamplerRun:
    config: GuidanceConfig
    seed: int
    sigmas: tuple[float, ...]
    trajectory: np.ndarray  # (steps + 1, d_x), a view into the batch's array
    masks_used: list[DegradationMask | None]  # one entry per step
    wpr_call_count: int

    @property
    def final(self) -> np.ndarray:
        return self.trajectory[-1]


_FAST_STATE: "weakref.WeakKeyDictionary[ToyTextEncoder, dict]" = (
    weakref.WeakKeyDictionary()
)


def _fast_state(
    encoder: ToyTextEncoder, tokens: TokenSequence, block: int, d_x: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cached (exp static logits, bias-response map) for the fast path.

    The query bias shifts every logit row by the same per-key vector, which
    is linear in (x, sigma); W0 holds exp of the static logits and Z maps
    (x, sigma) straight to that shift, so a step's attention weights cost
    one small exp and a broadcast multiply. The per-row exp normalization
    dropped here is absorbed by WPR's row normalization.
    """
    per_encoder = _FAST_STATE.setdefault(encoder, {})
    key = (tokens.ids, block, d_x)
    cached = per_encoder.get(key)
    if cached is None:
        logits0 = encoder.attention_logits(tokens, block)
        w0 = np.exp(logits0 - logits0.max(axis=2, keepdims=True))
        kt_scaled = encoder._qk_cache[(tokens.ids, block)][1]
        m = _state_bias_map(encoder, d_x).reshape(
            encoder.params.n_heads, encoder.d_head, d_x + 1
        )
        z_map = np.einsum("hdm,hdn->hnm", m, kt_scaled)
        cached = (w0, np.ascontiguousarray(z_map))
        per_encoder[key] = cached
    return cached


def _compute_importance(
    encoder: ToyTextEncoder,
    tokens: TokenSequence,
    x: np.ndarray,
    sigma: float,
    lambda_block: int,
    fusion: FusionConfig | None,
    bias_weight: float,
) -> ImportanceScores:
    if fusion is not None and fusion.enabled:
        amap = attention_provider(encoder, tokens, x, sigma, lambda_block, bias_weight)
        return fuse_heads(wpr_all_heads(amap), fusion)
    # filter disabled: WPR row-normalizes, so softmax normalization is
    # redundant and unnormalized exp(logits) feeds the solve directly; the
    # exact per-head fixed points come from direct solves and are fused
    # straight from the score stack (this runs inside the sampler's loop)
    if lambda_block < 0 or lambda_block >= encoder.params.n_blocks:
        raise InvalidInputError(f"lambda_block {lambda_block} out of range")
    w0, z_map = _fast_state(encoder, tokens, lambda_block, x.size)
    if bias_weight != 0.0:
        z = np.empty(x.size + 1)
        z[:-1] = x
        z[-1] = sigma
        shift = bias_weight * (z_map @ z)
        weights = w0 * np.exp(shift)[:, None, :]
    else:
        weights = w0
    return _fuse_stack(_stationary_scores(weights), True, None)


def _combine(
    mode: GuidanceMode, positive: Prediction, negative: Prediction, w: float
) -> Prediction:
    if mode is GuidanceMode.CFG:
        return combine_cfg(positive, negative, w)
    if mode is GuidanceMode.CDG:
        return combine_cdg(positive, negative, w)
    return combine_cfg_star(positive, negative, w)


def _rows(indices: list[int], n: int) -> slice | np.ndarray:
    """Index for a subset of the batch; a slice when it covers every row."""
    return slice(None) if len(indices) == n else np.asarray(indices, dtype=np.intp)


def _check_finite(x: np.ndarray, step: int) -> None:
    if not np.isfinite(x).all():
        chain = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
        raise NumericalError(f"non-finite latent at step {step} in chain {chain}")


@dataclass(frozen=True)
class Chain:
    """One sampler chain: its prompt, guidance settings and noise seed."""

    tokens: TokenSequence
    config: GuidanceConfig
    seed: int


def sample_batch(
    model: GmmConditionalModel,
    schedule: SigmaSchedule,
    encoder: ToyTextEncoder,
    chains: Sequence[Chain],
    fusion: FusionConfig | None = None,
    attention_bias_weight: float = DEFAULT_ATTENTION_BIAS_WEIGHT,
) -> list[SamplerRun]:
    """Guided probability-flow ODE sampling (Euler) of many chains at once.

    Each chain draws its initial noise from its own seed and follows the
    arithmetic of a lone chain, so a chain's run does not depend on the
    rest of the batch: sample() is the one-chain case. Per step there is
    one denoise over every chain at its positive condition, one over the
    chains that have a negative condition, and one combine per
    (mode, scale) group. The trajectories are row views of one
    (steps + 1, B, d_x) array.

    Masks for the degradation modes are built from the intervention block's
    attention map; with reuse_first_step_mask the importance ranking is
    computed once at the first step and reused, and at the ratio-1.0
    boundary the type-only mask bypasses importance computation entirely.
    The degraded embedding is re-pooled only when a chain's mask changes.
    Raises NumericalError at the first non-finite latent.
    """
    if not chains:
        return []
    sigmas = schedule.sigmas
    steps = len(sigmas) - 1
    n = len(chains)
    d_c = model.d_c

    conditions: dict[tuple[int, ...], tuple[Condition, np.ndarray]] = {}
    for chain in chains:
        if chain.tokens.ids not in conditions:
            c = encoder.encode(chain.tokens)
            conditions[chain.tokens.ids] = (c, encoder.pool(c, d_c))
    null = encoder.null_condition()
    modes = [chain.config.mode for chain in chains]
    e_null = None
    if GuidanceMode.CFG in modes or GuidanceMode.CFG_STAR in modes:
        e_null = encoder.pool(null, d_c)

    # each chain denoises at one positive and at most one negative embedding;
    # the degraded embedding is CFG*'s positive and CDG's negative
    pos = np.empty((n, d_c))
    neg = np.empty((n, d_c))
    ratios: list[DegradationRatios | None] = [None] * n
    boundary: list[int] = []
    first_step: list[int] = []  # chains ranking tokens at step 0
    every_step: list[int] = []  # chains ranking tokens at every later step
    groups: dict[tuple[GuidanceMode, float], list[int]] = {}
    for b, (chain, mode) in enumerate(zip(chains, modes)):
        if mode is not GuidanceMode.CFG_STAR:
            pos[b] = conditions[chain.tokens.ids][1]
        if mode in (GuidanceMode.CFG, GuidanceMode.CFG_STAR):
            neg[b] = e_null
        if mode is not GuidanceMode.NONE:
            groups.setdefault((mode, chain.config.guidance_scale), []).append(b)
        if not mode.uses_degradation:
            continue
        if chain.config.r_deg == 1.0:
            boundary.append(b)
            continue
        ratios[b] = map_ratio(chain.config.r_deg)
        first_step.append(b)
        if not chain.config.reuse_first_step_mask:
            every_step.append(b)

    guided = [b for b, mode in enumerate(modes) if mode is not GuidanceMode.NONE]
    guided_rows = _rows(guided, n) if guided else None
    neg_at = {b: k for k, b in enumerate(guided)}
    combines = [
        (mode, w, _rows(rows, n), _rows([neg_at[b] for b in rows], len(guided)))
        for (mode, w), rows in groups.items()
    ]

    trajectory = np.empty((steps + 1, n, model.d_x))
    trajectory[0] = np.stack(
        [np.random.default_rng(chain.seed).normal(size=model.d_x) for chain in chains]
    ) * sigmas[0]
    _check_finite(trajectory[0], 0)

    wpr_calls = [0] * n
    masks_used: list[list[DegradationMask | None]] = [[] for _ in range(n)]
    mask_bits: list[bytes | None] = [None] * n

    def use_mask(b: int, mask: DegradationMask) -> None:
        masks_used[b].append(mask)
        bits = mask.bits.tobytes()
        if bits != mask_bits[b]:
            mask_bits[b] = bits
            c = conditions[chains[b].tokens.ids][0]
            e_deg = encoder.pool(apply_mask(c, null, mask), d_c)
            if modes[b] is GuidanceMode.CFG_STAR:
                pos[b] = e_deg
            else:
                neg[b] = e_deg

    for b in boundary:
        # type-only boundary mask, no importance needed
        use_mask(b, content_boundary_mask(chains[b].tokens))

    x = trajectory[0]
    for i in range(steps):
        sigma = sigmas[i]
        for b in first_step if i == 0 else every_step:
            chain = chains[b]
            imp = _compute_importance(
                encoder, chain.tokens, x[b], sigma, chain.config.lambda_block,
                fusion, attention_bias_weight,
            )
            wpr_calls[b] += 1
            use_mask(b, build_mask(chain.tokens, imp, ratios[b]))

        eps_hat = denoiser_to_eps(denoise(model, x, sigma, pos), x, sigma)
        if guided_rows is not None:
            xg = x[guided_rows]
            eps_neg = denoiser_to_eps(
                denoise(model, xg, sigma, neg[guided_rows]), xg, sigma
            )
            for mode, w, rows, neg_rows in combines:
                eps_hat[rows] = _combine(
                    mode,
                    Prediction(eps_hat[rows], sigma),
                    Prediction(eps_neg[neg_rows], sigma),
                    w,
                ).value
        # PF-ODE: dx/dsigma = -sigma * score = (x - D) / sigma = eps
        x = np.add(x, (sigmas[i + 1] - sigma) * eps_hat, out=trajectory[i + 1])
        _check_finite(x, i + 1)

    runs = []
    for b, chain in enumerate(chains):
        used = masks_used[b]
        if len(used) != steps:
            # one mask for the whole chain, or none at all
            used = (used or [None]) * steps
        runs.append(
            SamplerRun(
                config=chain.config,
                seed=chain.seed,
                sigmas=sigmas,
                trajectory=trajectory[:, b],
                masks_used=used,
                wpr_call_count=wpr_calls[b],
            )
        )
    return runs


def sample(
    model: GmmConditionalModel,
    schedule: SigmaSchedule,
    encoder: ToyTextEncoder,
    tokens: TokenSequence,
    config: GuidanceConfig,
    seed: int,
    fusion: FusionConfig | None = None,
    attention_bias_weight: float = DEFAULT_ATTENTION_BIAS_WEIGHT,
) -> SamplerRun:
    """Guided sampling of one chain: sample_batch with a batch of one."""
    return sample_batch(
        model, schedule, encoder, [Chain(tokens, config, seed)],
        fusion=fusion, attention_bias_weight=attention_bias_weight,
    )[0]
