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

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .degradation import (
    DegradationMask,
    DegradationRatios,
    apply_mask,
    build_mask,
    content_boundary_mask,
    map_ratio,
    mask_extent,
)
from .encoder import Condition, PromptState, TokenSequence, ToyTextEncoder
from .errors import AllHeadsFilteredError, InvalidInputError, NumericalError
from .guidance import GuidanceConfig, GuidanceMode, combine, denoiser_to_eps
from .importance import (
    FusionConfig,
    ImportanceScores,
    fuse_head_stacks,
    stationary_scores,
)
from .linalg import all_finite

DEFAULT_ATTENTION_BIAS_WEIGHT = 0.1


@dataclass
class GmmConditionalModel:
    """Condition-dependent Gaussian mixture: component j is N(M_j e, s_j^2 I)."""

    maps: np.ndarray  # (J, d_x, d_c)
    spreads: np.ndarray  # (J,) isotropic stds, > 0
    weights: np.ndarray  # (J,) summing to 1
    seed: int = 0
    # per-component constants of every denoise call, derived from the above
    log_weights: np.ndarray = field(init=False, repr=False)
    variances: np.ndarray = field(init=False, repr=False)  # spreads**2

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
        self.log_weights = np.log(self.weights)
        self.variances = self.spreads**2

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
        if not np.isfinite(s).all():
            raise InvalidInputError("sigmas must be finite")
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
    model: GmmConditionalModel, x: np.ndarray, sigma: float | np.ndarray, m: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Log joint weights (..., J) and per-component posterior means (..., J, d_x).

    m holds the component means of one embedding (J, d_x), shared by every
    latent, or of one embedding per latent (B, J, d_x): model.means(e).
    sigma is one float for every latent, or a (B, 1) column of one per
    latent row; each row's arithmetic is the same either way.
    """
    s2 = sigma * sigma
    var = model.variances + s2  # (J,), or (B, J) for a column
    xe = x[..., None, :]  # (..., 1, d_x)
    diff = xe - m
    sq = (diff * diff).sum(axis=-1)  # (..., J)
    logw = (
        model.log_weights
        - 0.5 * model.d_x * np.log(2.0 * np.pi * var)
        - sq / (2.0 * var)
    )
    if isinstance(s2, np.ndarray):
        s2 = s2[..., None]  # (B, 1, 1), against m's (B, J, d_x)
    comp = model.variances[:, None] * xe + s2 * m
    comp /= var[..., None]
    return logw, comp


def _denoise(
    model: GmmConditionalModel, x: np.ndarray, sigma: float | np.ndarray, m: np.ndarray
) -> np.ndarray:
    """denoise at the component means m = model.means(e), for a checked sigma."""
    logw, comp = _posterior_stats(model, x, sigma, m)
    logw = logw - logw.max(axis=-1, keepdims=True)
    g = np.exp(logw)
    g = g / g.sum(axis=-1, keepdims=True)
    return (g[..., None] * comp).sum(axis=-2)


def denoise(
    model: GmmConditionalModel, x: np.ndarray, sigma: float | np.ndarray, e: np.ndarray
) -> np.ndarray:
    """Exact posterior mean E[x0 | x_sigma = x, e]; vectorized over leading axes.

    sigma is one noise level, or a (B, 1) column of one per row of x (B, d_x).
    """
    x = np.asarray(x, dtype=np.float64)
    if isinstance(sigma, np.ndarray):
        if x.ndim != 2 or sigma.shape != (len(x), 1):
            raise InvalidInputError(
                f"sigma column of shape {sigma.shape} for latents of shape {x.shape}"
            )
        # written so that NaN fails too: nan > 0 is False
        if not ((sigma > 0.0) & (sigma < np.inf)).all():
            raise InvalidInputError("sigma must be positive and finite")
    elif not 0.0 < sigma < np.inf:
        raise InvalidInputError("sigma must be positive and finite")
    return _denoise(model, x, sigma, model.means(e))


def log_density(
    model: GmmConditionalModel, x: np.ndarray, sigma: float, e: np.ndarray
) -> np.ndarray:
    """log p(x; sigma | e) of the sigma-smoothed mixture; sigma 0 is the clean one."""
    # written so that NaN fails too; sigma enters only squared, so a negative
    # one would pass for its absolute value
    if not 0.0 <= sigma < np.inf:
        raise InvalidInputError("sigma must be nonnegative and finite")
    x = np.asarray(x, dtype=np.float64)
    logw, _ = _posterior_stats(model, x, sigma, model.means(e))
    peak = logw.max(axis=-1, keepdims=True)
    out = peak[..., 0] + np.log(np.exp(logw - peak).sum(axis=-1))
    return out


def score(
    model: GmmConditionalModel, x: np.ndarray, sigma: float, e: np.ndarray
) -> np.ndarray:
    """Score of the smoothed density via the denoiser: (D(x) - x) / sigma^2."""
    x = np.asarray(x, dtype=np.float64)
    return (denoise(model, x, sigma, e) - x) / (sigma * sigma)


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


def _compute_importance(weights: list[np.ndarray]) -> np.ndarray:
    """Per-head token importance (K, H, N) of K attention stacks (H, N, N).

    One stationary solve covers every head of every stack; a head's result
    does not depend on the rest of the stack.
    """
    stack = weights[0] if len(weights) == 1 else np.concatenate(weights)
    return stationary_scores(stack).reshape(len(weights), -1, stack.shape[-1])


@dataclass(frozen=True)
class DegradeRow:
    """A prompt to degrade at a latent state: a sampler chain or a geometry prompt."""

    label: str  # names the row in errors, e.g. "chain 3"
    tokens: TokenSequence
    condition: Condition
    ratios: DegradationRatios
    state: PromptState | None  # the ranking attention; None at ratio 1.0


def degrade_rows(
    encoder: ToyTextEncoder,
    rows: Sequence[DegradeRow],
    x: np.ndarray,
    sigma: float,
    d_c: int,
    fusion: FusionConfig | None,
    bias_weight: float,
    previous: Sequence[DegradationMask] | None = None,
) -> tuple[list[DegradationMask], list[int], np.ndarray | None]:
    """Degradation masks of rows at latents x (B, d_x) and one sigma.

    At the ratio-1.0 boundary the type-only mask needs no importance. The
    other rows are ranked from their prompt state at their latent: rows
    sharing a state and a latent are ranked once, every distinct input in
    one stacked solve and fused in one stacked call, then masked per row.
    Returns every row's mask, the indices of the rows whose bits differ
    from `previous` (every row when it is None), and those rows' pooled
    degraded embeddings (C, d_c), or None when no row changed; the other
    rows' embeddings still hold.
    """
    # each distinct (prompt state, latent) is ranked once, at its first row
    index: dict[tuple[int, bytes], int] = {}
    weights: list[np.ndarray] = []
    keys = [-1] * len(rows)
    for r, row in enumerate(rows):
        if row.ratios.r_deg == 1.0:
            continue
        x_r = x[r]
        k = keys[r] = index.setdefault((id(row.state), x_r.tobytes()), len(weights))
        if k == len(weights):
            weights.append(row.state.weights(x_r, sigma, bias_weight))
    if weights:
        scores = _compute_importance(weights)
        try:
            stacks = fuse_head_stacks(scores, fusion)
        except AllHeadsFilteredError as exc:
            row = rows[keys.index(exc.index)]
            raise AllHeadsFilteredError(
                f"{exc} for {row.label} at sigma {sigma}", exc.index
            ) from exc
    fused: list[ImportanceScores] = []
    masks: list[DegradationMask] = []
    changed: list[int] = []
    for r, (row, k) in enumerate(zip(rows, keys)):
        if k < 0:
            mask = content_boundary_mask(row.tokens)
        else:
            if k == len(fused):  # the first row with this input
                fused.append(ImportanceScores(stacks[k]))
            mask = build_mask(row.tokens, fused[k], row.ratios)
        masks.append(mask)
        if previous is None or mask.bits.tobytes() != previous[r].bits.tobytes():
            changed.append(r)
    if not changed:
        return masks, changed, None
    degraded = apply_mask(
        Condition(np.array([rows[r].condition.embeddings for r in changed])),
        encoder.null_condition(),
        [masks[r] for r in changed],
    )
    return masks, changed, encoder.pool(degraded, d_c)


def _rows(indices: list[int], n: int) -> slice | np.ndarray:
    """Index for a subset of the batch; a slice when it covers every row."""
    return slice(None) if len(indices) == n else np.asarray(indices, dtype=np.intp)


def _check_finite(x: np.ndarray, step: int, labels: Sequence[int]) -> None:
    if not all_finite(x):
        row = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
        raise NumericalError(f"non-finite latent at step {step} in chain {labels[row]}")


@dataclass(frozen=True)
class Chain:
    """One sampler chain: its prompt, guidance settings and noise seed."""

    tokens: TokenSequence
    config: GuidanceConfig
    seed: int


def _chain_key(chain: Chain) -> tuple:
    """Everything that decides a chain's trajectory within one sample_batch call.

    A degradation mode's ratio enters only through the mask's extent: the
    same prompt at the same latent ranks its tokens the same way, so equal
    extents give equal masks at every step. The ratio-1.0 boundary stays
    apart, because its mask skips the ranking.
    """
    config = chain.config
    key = (chain.tokens.ids, chain.seed, config.mode, config.guidance_scale)
    if not config.mode.uses_degradation:
        return key
    return key + (
        config.lambda_block,
        config.reuse_first_step_mask,
        config.r_deg == 1.0,
        mask_extent(chain.tokens, map_ratio(config.r_deg)),
    )


def _rankings(config: GuidanceConfig, steps: int) -> int:
    """How many masks a chain builds by ranking its tokens."""
    if not config.mode.uses_degradation or config.r_deg == 1.0:
        return 0
    return 1 if config.reuse_first_step_mask else steps


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
    rest of the batch: sample() is the one-chain case. Chains that agree on
    everything deciding a trajectory (prompt, seed, mode, scale and, for
    the degradation modes, block, mask reuse, the ratio-1.0 boundary and
    the mask's extent) are integrated once, as one row. Per step there is
    one denoise over every row at its positive condition, one over the
    guided rows at their negative condition, and one combine over the
    guided rows with a column of their scales. A chain at w = 1 is not
    guided: its prediction is the positive one, so it skips the negative.
    Each condition's component means are computed once per call, and a
    degraded one's again only when its mask changes. The trajectories are
    row views of one (steps + 1, B, d_x) array, a row per chain.

    Masks for the degradation modes are built from the intervention block's
    attention map, by one degrade_rows call per step over the rows that
    build one then; with reuse_first_step_mask the importance ranking is
    computed once at the first step and reused, and at the ratio-1.0
    boundary the type-only mask bypasses importance computation entirely.
    The degraded embedding is re-pooled only when a row's mask changes.
    Raises NumericalError at the first non-finite latent, naming the
    first chain of its row.
    """
    if not chains:
        return []
    # each distinct chain is integrated once, as the row of its first
    # occurrence: firsts[u] is row u's first chain, row_at[b] chain b's row
    if len(chains) == 1:
        firsts, row_at = [0], [0]
    else:
        firsts, row_at = [], []
        index: dict[tuple, int] = {}
        for b, chain in enumerate(chains):
            u = index.setdefault(_chain_key(chain), len(firsts))
            if u == len(firsts):
                firsts.append(b)
            row_at.append(u)
    trajectory, masks = _integrate(
        model, schedule, encoder, [chains[b] for b in firsts], firsts,
        fusion, attention_bias_weight,
    )
    if len(firsts) < len(chains):
        trajectory = trajectory[:, row_at]  # a copy: no run shares its rows
    return [
        SamplerRun(
            config=chain.config,
            seed=chain.seed,
            sigmas=schedule.sigmas,
            trajectory=trajectory[:, b],
            masks_used=list(masks[u]),
            wpr_call_count=_rankings(chain.config, schedule.steps),
        )
        for b, (chain, u) in enumerate(zip(chains, row_at))
    ]


def _integrate(
    model: GmmConditionalModel,
    schedule: SigmaSchedule,
    encoder: ToyTextEncoder,
    chains: Sequence[Chain],
    labels: Sequence[int],
    fusion: FusionConfig | None,
    attention_bias_weight: float,
) -> tuple[np.ndarray, list[list[DegradationMask | None]]]:
    """Trajectories (steps + 1, B, d_x) of distinct chains and each one's
    mask per step; labels[b] is the batch index naming chain b in errors."""
    sigmas = schedule.sigmas
    steps = len(sigmas) - 1
    n = len(chains)
    d_c = model.d_c

    conditions: dict[tuple[int, ...], tuple[Condition, np.ndarray]] = {}
    for chain in chains:
        if chain.tokens.ids not in conditions:
            c = encoder.encode(chain.tokens)
            conditions[chain.tokens.ids] = (c, encoder.pool(c, d_c))
    modes = [chain.config.mode for chain in chains]

    # chains at w = 1 stay out of the combine, which would turn a -0.0 of
    # their positive prediction into +0.0
    guided = [
        b for b, (chain, mode) in enumerate(zip(chains, modes))
        if mode is not GuidanceMode.NONE and chain.config.guidance_scale != 1.0
    ]
    guided_rows = _rows(guided, n)
    w_col = np.array([[chains[b].config.guidance_scale] for b in guided])

    # each chain denoises at the component means of one positive embedding
    # and, when guided, one negative; the degraded embedding is CFG*'s
    # positive and CDG's negative, and its means are filled in when its mask
    # changes
    shape = (model.n_components, model.d_x)
    pos_m = np.empty((n, *shape))
    neg_m = np.empty((len(guided), *shape))
    prompt_pos = [b for b, mode in enumerate(modes) if mode is not GuidanceMode.CFG_STAR]
    if prompt_pos:
        pos_m[prompt_pos] = model.means(
            np.array([conditions[chains[b].tokens.ids][1] for b in prompt_pos])
        )
    null_neg = [g for g, b in enumerate(guided) if modes[b] is not GuidanceMode.CDG]
    if null_neg:
        neg_m[null_neg] = model.means(encoder.pool(encoder.null_condition(), d_c)[None])
    guided_at = {b: g for g, b in enumerate(guided)}
    degraded_into = [
        (pos_m, b) if mode is GuidanceMode.CFG_STAR
        else (neg_m, guided_at[b]) if b in guided_at
        else None  # a w = 1 CDG chain never reads its negative
        for b, mode in enumerate(modes)
    ]

    # the prompt states of the ranked chains, held for the whole call, so a
    # batch of more prompts than the encoder's store keeps builds each once
    states: dict[tuple, PromptState] = {}
    row_of: dict[int, DegradeRow] = {}
    first_step: list[int] = []  # chains building a mask at step 0
    every_step: list[int] = []  # chains ranking tokens at every later step
    for b, (chain, mode) in enumerate(zip(chains, modes)):
        if not mode.uses_degradation:
            continue
        first_step.append(b)
        state = None
        # the ratio-1.0 boundary mask does not depend on the latent
        if chain.config.r_deg != 1.0:
            key = (chain.tokens.ids, chain.config.lambda_block)
            if key not in states:
                states[key] = encoder.prompt_state(
                    chain.tokens, chain.config.lambda_block, model.d_x
                )
            state = states[key]
            if not chain.config.reuse_first_step_mask:
                every_step.append(b)
        row_of[b] = DegradeRow(
            f"chain {labels[b]}", chain.tokens, conditions[chain.tokens.ids][0],
            map_ratio(chain.config.r_deg), state,
        )
    # (chains, their batch index, their rows) degraded at step 0 and later
    degraded_at = [
        (active, _rows(active, n), [row_of[b] for b in active])
        for active in (first_step, every_step)
    ]
    first_at = {b: p for p, b in enumerate(first_step)}
    every_at = {b: j for j, b in enumerate(every_step)}

    # one draw per distinct seed
    noise: dict[int, np.ndarray] = {}
    for chain in chains:
        if chain.seed not in noise:
            noise[chain.seed] = np.random.default_rng(chain.seed).normal(size=model.d_x)
    trajectory = np.empty((steps + 1, n, model.d_x))
    trajectory[0] = np.stack([noise[chain.seed] for chain in chains]) * sigmas[0]
    _check_finite(trajectory[0], 0, labels)

    # the masks of the first_step chains at step 0, then of the every_step
    # chains at each step
    first_masks: list[DegradationMask] = []
    later_masks: list[list[DegradationMask]] = []

    x = trajectory[0]
    for i in range(steps):
        sigma = sigmas[i]
        active, index, active_rows = degraded_at[i > 0]
        if active:
            masks, changed, e_deg = degrade_rows(
                encoder, active_rows, x[index], sigma, d_c, fusion,
                attention_bias_weight, later_masks[-1] if i else None,
            )
            if i:
                later_masks.append(masks)
            else:
                first_masks = masks
                later_masks.append([masks[first_at[b]] for b in every_step])
            if changed:
                for r, m in zip(changed, model.means(e_deg)):
                    into = degraded_into[active[r]]
                    if into is not None:
                        into[0][into[1]] = m

        eps_hat = denoiser_to_eps(_denoise(model, x, sigma, pos_m), x, sigma)
        if guided:
            xg = x[guided_rows]
            eps_neg = denoiser_to_eps(_denoise(model, xg, sigma, neg_m), xg, sigma)
            eps_hat[guided_rows] = combine(eps_hat[guided_rows], eps_neg, w_col)
        # PF-ODE: dx/dsigma = -sigma * score = (x - D) / sigma = eps
        x = np.add(x, (sigmas[i + 1] - sigma) * eps_hat, out=trajectory[i + 1])
        _check_finite(x, i + 1, labels)

    masks_used: list[list[DegradationMask | None]] = []
    for b in range(n):
        if b in every_at:
            masks_used.append([m[every_at[b]] for m in later_masks])
        elif b in first_at:
            masks_used.append([first_masks[first_at[b]]] * steps)
        else:
            masks_used.append([None] * steps)
    return trajectory, masks_used


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
