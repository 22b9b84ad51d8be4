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

import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .degradation import apply_mask, build_masks, mask_extent
from .encoder import PromptState, TokenSequence, ToyTextEncoder
from .errors import AllHeadsFilteredError, InvalidInputError, NumericalError
from .guidance import GuidanceConfig, GuidanceMode, combine, denoiser_to_eps
from .importance import FusionConfig, fuse_head_stacks, stationary_scores
from .linalg import all_finite

DEFAULT_ATTENTION_BIAS_WEIGHT = 0.1


@dataclass
class GmmConditionalModel:
    """Condition-dependent Gaussian mixture: component j is N(M_j e, s_j^2 I)."""

    maps: np.ndarray  # (J, d_x, d_c)
    spreads: np.ndarray  # (J,) isotropic stds, > 0
    weights: np.ndarray  # (J,) summing to 1
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
        if not all(map(all_finite, (self.maps, self.spreads, self.weights))):
            raise InvalidInputError("maps, spreads and weights must be finite")
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
        return cls(maps=maps, spreads=spreads, weights=weights)


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

    @classmethod
    def log_spaced(cls, steps: int, sigma_max: float, sigma_min: float) -> "SigmaSchedule":
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


def _checked(model: GmmConditionalModel, x, e) -> tuple[np.ndarray, np.ndarray]:
    """x and e as float64 arrays, finite and of matching shapes: latents
    (..., d_x) under one embedding e (d_c,), or one embedding per row,
    x (B, d_x) under e (B, d_c)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    widths = x.shape[-1:] == (model.d_x,) and e.shape[-1:] == (model.d_c,)
    per_row = e.ndim == 2 and x.shape == (len(e), model.d_x)
    if not widths or (e.ndim > 1 and not per_row):
        raise InvalidInputError(
            f"latents of shape {x.shape} and embeddings of shape {e.shape}"
            f" for d_x {model.d_x}, d_c {model.d_c}"
        )
    if not (all_finite(x) and all_finite(e)):
        raise InvalidInputError("latents and embeddings must be finite")
    return x, e


def _check_sigma(sigma: float | np.ndarray, x: np.ndarray, allow_zero: bool) -> None:
    """Raises InvalidInputError unless sigma is one noise level, or a (B, 1)
    column for latents x (B, d_x), each finite and positive (or 0, if allow_zero)."""
    if isinstance(sigma, np.ndarray) and (x.ndim != 2 or sigma.shape != (len(x), 1)):
        raise InvalidInputError(f"sigma column of shape {sigma.shape} for latents {x.shape}")
    # NaN fails too, as nan >= 0 is False; sigma enters only squared, so a
    # negative one would pass for its absolute value
    if not np.all((sigma >= 0.0 if allow_zero else sigma > 0.0) & (sigma < np.inf)):
        raise InvalidInputError("sigma must be finite and positive, or 0 for log_density")


def denoise(
    model: GmmConditionalModel, x: np.ndarray, sigma: float | np.ndarray, e: np.ndarray
) -> np.ndarray:
    """Exact posterior mean E[x0 | x_sigma = x, e]; vectorized over leading axes.

    sigma is one noise level, or a (B, 1) column of one per row of x (B, d_x).
    """
    x, e = _checked(model, x, e)
    _check_sigma(sigma, x, allow_zero=False)
    return _denoise(model, x, sigma, model.means(e))


def log_density(
    model: GmmConditionalModel, x: np.ndarray, sigma: float | np.ndarray, e: np.ndarray
) -> np.ndarray:
    """log p(x; sigma | e) of the sigma-smoothed mixture; sigma 0 is the clean
    one. sigma is one noise level, or a (B, 1) column as in denoise."""
    x, e = _checked(model, x, e)
    _check_sigma(sigma, x, allow_zero=True)
    logw, _ = _posterior_stats(model, x, sigma, model.means(e))
    peak = logw.max(axis=-1, keepdims=True)
    return peak[..., 0] + np.log(np.exp(logw - peak).sum(axis=-1))


def score(
    model: GmmConditionalModel, x: np.ndarray, sigma: float | np.ndarray, e: np.ndarray
) -> np.ndarray:
    """Score of the smoothed density via the denoiser: (D(x) - x) / sigma^2."""
    x = np.asarray(x, dtype=np.float64)
    return (denoise(model, x, sigma, e) - x) / (sigma * sigma)


@dataclass
class SamplerRun:
    """What one chain's sampling produced; its inputs stay on its Chain."""

    sigmas: tuple[float, ...]
    trajectory: np.ndarray  # (steps + 1, d_x), a view into the batch's array
    masks: np.ndarray | None  # (steps, N) keep bits, a read-only view; None if not degrading
    wpr_call_count: int

    @property
    def final(self) -> np.ndarray:
        return self.trajectory[-1]


def _compute_importance(weights: np.ndarray) -> np.ndarray:
    """Per-head token importance (K, H, N) of K attention stacks (K, H, N, N).

    One stationary solve covers every head of every stack; a head's result
    does not depend on the rest of the stack. The solve normalizes weights,
    the caller's own fresh float64 array, in place and then overwrites it.
    """
    k, h, n = weights.shape[:3]
    # in place: a copy of the weights per call cost diagnose ~10% of its items_per_s
    return stationary_scores(weights.reshape(k * h, n, n), overwrite_weights=True).reshape(k, h, n)


class DegradeSet:
    """The rows one call degrades, built by degrade_set.

    Row r is tokens[r], with condition embeddings conditions[r] (N,
    d_model), at extents[r], its (k_content, k_ctxagg) row of an (R, 2)
    array, named labels[r] in errors (e.g. "chain 3"). It ranks under key
    keys[r], or not at all at key -1. The rows of a key share one ranking,
    made from key_states[k], the key's prompt state, at the latent and
    sigma of its first row; `at` indexes each key's first row.
    """

    def __init__(self, labels, tokens, conditions, extents, keys, key_states, at):
        self.labels, self.tokens, self.conditions = labels, tokens, conditions
        self.extents, self.keys, self.key_states, self.at = extents, keys, key_states, at

    def __len__(self) -> int:
        return len(self.keys)

    def subset(self, rows: Sequence[int]) -> DegradeSet:
        """These rows of the set, each ranked under its own key, from the
        prompt states the set already holds."""
        ranked = [i for i, r in enumerate(rows) if self.keys[r] >= 0]
        keys = [-1] * len(rows)
        for k, i in enumerate(ranked):
            keys[i] = k
        return DegradeSet(
            [self.labels[r] for r in rows], [self.tokens[r] for r in rows],
            [self.conditions[r] for r in rows], self.extents[rows],
            keys, [self.key_states[self.keys[rows[i]]] for i in ranked], _rows(ranked),
        )


def degrade_set(states: dict[tuple, PromptState], rows: Iterable[tuple], d_x: int) -> DegradeSet:
    """The DegradeSet of rows (label, tokens, condition embeddings, ratios,
    block, latent); the one place that decides whether a row ranks.

    A row at the ratio-1.0 boundary gets key -1: its mask needs no
    ranking. Another row ranks from the state of its (token ids, block,
    d_x) in states, the prompt states the caller's encode_stack call
    returned, which the set holds. The latent is any value naming the
    latent and sigma a row is ranked at, such as a chain's seed at the
    sampler's first step: rows of one (token ids, block, latent) share a key.
    """
    labels, tokens, conditions, ratios, blocks, latents = zip(*rows)
    index: dict[tuple, int] = {}
    keys, key_states, firsts = [], [], []
    for r, (t, ratio, block, latent) in enumerate(zip(tokens, ratios, blocks, latents)):
        k = -1
        if ratio.ranks:
            k = index.setdefault((t.ids, block, latent), len(firsts))
            if k == len(firsts):
                key_states.append(states[t.ids, block, d_x])
                firsts.append(r)
        keys.append(k)
    extents = np.array([mask_extent(t, ratio) for t, ratio in zip(tokens, ratios)])
    return DegradeSet(labels, tokens, conditions, extents, keys, key_states, _rows(firsts))


def _stacked_weights(
    states: list[PromptState], x: np.ndarray, sigma: float | np.ndarray, bias_weight: float
) -> np.ndarray:
    """Attention weights (K, H, N, N) of states[k] at latent x[k] and noise
    sigma (one, or a (K, 1) column): one fresh array.

    Each static map is scaled by the exp of its logit shift, shift_map @
    (x, sigma): for one key one (H, N, d_x + 1) @ (d_x + 1) product, for
    several one (K, H, N, d_x + 1) @ (K, 1, d_x + 1, 1) product over the
    gathered maps, which rounds the same. With bias_weight 0 the weights
    are the static maps bit for bit, as each factor is exp(0) = 1.
    """
    one = len(states) == 1
    z = np.empty(x.shape[1] + 1 if one else (len(x), x.shape[1] + 1))
    z[..., :-1] = x
    z[..., -1:] = sigma
    if one:
        state = states[0]
        return (state.static * np.exp(bias_weight * (state.shift_map @ z))[:, None, :])[None]
    weights = np.array([s.static for s in states])
    shift = np.array([s.shift_map for s in states]) @ z[:, None, :, None]
    weights *= np.exp(bias_weight * shift).swapaxes(-1, -2)
    return weights


def degrade_rows(
    encoder: ToyTextEncoder,
    rows: DegradeSet,
    x: np.ndarray,
    sigma: float | np.ndarray,
    d_c: int,
    fusion: FusionConfig,
    bias_weight: float,
    previous: np.ndarray | None = None,
) -> tuple[np.ndarray, list[int], np.ndarray | None]:
    """Degradation masks (B, N) of rows at latents x (B, d_x) and noise levels sigma.

    sigma is one noise level for every row, or a (B, 1) column of one per
    row, as in denoise. Each key is ranked at its first row's latent and
    sigma: the keys' attention weights are one (K, H, N, N) array, which
    one stationary solve normalizes in place and one stacked call fuses,
    and build_masks masks every row from its key's scores. A head filter
    that rejects every head of a key names that row and its sigma.
    Returns every row's keep bits, the indices of the rows whose bits differ
    from `previous` (every row when it is None), and those rows' pooled
    degraded embeddings (C, d_c), or None when no row changed; the other
    rows' embeddings still hold.
    """
    column = isinstance(sigma, np.ndarray)
    if column and sigma.shape != (len(rows), 1):
        raise InvalidInputError(f"sigma column of shape {sigma.shape} for {len(rows)} rows")
    scores = None
    if rows.key_states:
        at = rows.at
        try:
            scores = fuse_head_stacks(
                _compute_importance(_stacked_weights(
                    rows.key_states, x[at], sigma[at] if column else sigma, bias_weight
                )),
                fusion,
            )
        except AllHeadsFilteredError as exc:
            r = rows.keys.index(exc.index)
            at_sigma = float(sigma[r, 0]) if column else sigma
            raise AllHeadsFilteredError(
                f"{exc} for {rows.labels[r]} at sigma {at_sigma}", exc.index
            ) from exc
    keep = build_masks(rows.tokens, scores, rows.keys, rows.extents)
    if previous is None:
        changed = list(range(len(rows)))
    else:
        changed = (keep != previous).any(axis=1).nonzero()[0].tolist()
    if not changed:
        return keep, changed, None
    degraded = apply_mask(
        np.array([rows.conditions[r] for r in changed]),
        encoder.null_condition(),
        keep[changed],
    )
    return keep, changed, encoder.pool(degraded, d_c)


def _rows(indices: list[int]) -> slice | np.ndarray:
    """Index for ascending rows of the batch: a slice, which takes a view,
    when they are one contiguous run, else an index array."""
    if indices and indices[-1] - indices[0] == len(indices) - 1:
        return slice(indices[0], indices[-1] + 1)
    return np.asarray(indices, dtype=np.intp)


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
        config.ratios.ranks,
        mask_extent(chain.tokens, config.ratios),
    )


def _rankings(config: GuidanceConfig, steps: int) -> int:
    """How many masks a chain builds by ranking its tokens."""
    if not config.mode.uses_degradation or not config.ratios.ranks:
        return 0
    return 1 if config.reuse_first_step_mask else steps


def sample_batch(
    model: GmmConditionalModel,
    schedule: SigmaSchedule,
    encoder: ToyTextEncoder,
    chains: Sequence[Chain],
    fusion: FusionConfig = FusionConfig(),
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

    The distinct prompts take one encode_stack walk, which also builds the call's prompt states.
    Masks for the degradation modes are built from the intervention block's
    attention map, by one degrade_rows call per step over the rows that
    build one then; with reuse_first_step_mask the importance ranking is
    computed once at the first step and reused, and at the ratio-1.0
    boundary the unranked mask bypasses importance computation entirely.
    The degraded embedding is re-pooled only when a row's mask changes.
    Raises NumericalError at the first non-finite latent, naming the
    first chain of its row.
    """
    if not chains:
        return []
    # each distinct chain is integrated once, as the row of its first
    # occurrence: firsts[u] is row u's first chain, row_at[b] chain b's row
    firsts, row_at = [], []
    index: dict[tuple, int] = {}
    for b, chain in enumerate(chains):
        u = index.setdefault(_chain_key(chain), len(firsts))
        if u == len(firsts):
            firsts.append(b)
        row_at.append(u)
    trajectory, ledger = _integrate(
        model, schedule, encoder, [chains[b] for b in firsts], firsts,
        fusion, attention_bias_weight,
    )
    if len(firsts) < len(chains):
        trajectory = trajectory[:, row_at]  # a copy: no run shares its rows
    return [
        SamplerRun(
            sigmas=schedule.sigmas,
            trajectory=trajectory[:, b],
            # read-only, so duplicate chains may share their row
            masks=ledger[:, u] if chain.config.mode.uses_degradation else None,
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
    fusion: FusionConfig,
    attention_bias_weight: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Trajectories (steps + 1, B, d_x) of distinct chains and the read-only
    ledger (steps, B, N) of their keep bits per step, all True for a chain
    that does not degrade; labels[b] is the batch index naming chain b in
    errors."""
    sigmas = schedule.sigmas
    steps = len(sigmas) - 1
    n = len(chains)
    d_c = model.d_c

    # one walk over the distinct prompts, a row at each block some chain
    # ranks one at, or at None; the call holds the states it returns
    wanted: dict[tuple[int, ...], tuple[TokenSequence, dict]] = {}
    for chain in chains:
        blocks = wanted.setdefault(chain.tokens.ids, (chain.tokens, {}))[1]
        if chain.config.mode.uses_degradation and chain.config.ratios.ranks:
            blocks[chain.config.lambda_block] = None
    walked = [(t, block) for t, blocks in wanted.values() for block in blocks or [None]]
    embeddings, states = encoder.encode_stack(*zip(*walked), model.d_x)
    conditions = {t.ids: c for (t, _), c in zip(walked, embeddings)}
    modes = [chain.config.mode for chain in chains]

    # chains at w = 1 stay out of the combine, which would turn a -0.0 of
    # their positive prediction into +0.0
    guided = [
        b for b, (chain, mode) in enumerate(zip(chains, modes))
        if mode is not GuidanceMode.NONE and chain.config.guidance_scale != 1.0
    ]
    guided_rows = _rows(guided)
    w_col = np.array([[chains[b].config.guidance_scale] for b in guided])

    # each chain denoises at the component means of one positive embedding
    # and, when guided, one negative, both in the chain's row; the degraded
    # embedding is CFG*'s positive and CDG's negative, and its means are
    # filled in when its mask changes
    shape = (model.n_components, model.d_x)
    pos_m = np.empty((n, *shape))
    neg_m = np.empty((n, *shape))
    prompt_pos = [b for b, mode in enumerate(modes) if mode is not GuidanceMode.CFG_STAR]
    if prompt_pos:
        pos_m[prompt_pos] = model.means(encoder.pool(
            np.array([conditions[chains[b].tokens.ids] for b in prompt_pos]), d_c
        ))
    null_neg = [b for b in guided if modes[b] is not GuidanceMode.CDG]
    if null_neg:
        neg_m[null_neg] = model.means(encoder.pool(encoder.null_condition(), d_c)[None])

    # the chains degrading at step 0, ranked once per (prompt, block, seed),
    # as they share their latent there, and those of them ranking tokens
    # again at every later step, each under its own key
    degrading = [b for b, mode in enumerate(modes) if mode.uses_degradation]
    degraded_at = [((), None, None)] * 2
    if degrading:
        rows = degrade_set(states, [
            (f"chain {labels[b]}", c.tokens, conditions[c.tokens.ids],
             c.config.ratios, c.config.lambda_block, c.seed)
            for b, c in enumerate(chains) if c.config.mode.uses_degradation
        ], model.d_x)
        degraded_at[0] = (degrading, _rows(degrading), rows)
        again = [
            r for r, b in enumerate(degrading)
            if rows.keys[r] >= 0 and not chains[b].config.reuse_first_step_mask
        ]
        if again:
            active = [degrading[r] for r in again]
            degraded_at[1] = (active, _rows(active), rows.subset(again))

    # one draw per distinct seed
    noise: dict[int, np.ndarray] = {}
    for label, chain in zip(labels, chains):
        if chain.seed not in noise:
            if operator.index(chain.seed) < 0:
                raise InvalidInputError(f"chain {label}: seed must be >= 0")
            noise[chain.seed] = np.random.default_rng(chain.seed).normal(size=model.d_x)
    trajectory = np.empty((steps + 1, n, model.d_x))
    trajectory[0] = np.stack([noise[chain.seed] for chain in chains]) * sigmas[0]
    _check_finite(trajectory[0], 0, labels)

    # each chain's keep bits per step
    ledger = np.ones((steps, n, encoder.params.seq_len), dtype=bool)
    x = trajectory[0]
    for i in range(steps):
        sigma = sigmas[i]
        active, index, active_rows = degraded_at[i > 0]
        if active:
            keep, changed, e_deg = degrade_rows(
                encoder, active_rows, x[index], sigma, d_c, fusion, attention_bias_weight,
                ledger[i - 1, index] if i else None,
            )
            if i:
                ledger[i, index] = keep
            else:  # a chain keeps its step-0 mask until a later step rebuilds it
                ledger[:, index] = keep
            if changed:
                for r, m in zip(changed, model.means(e_deg)):
                    b = active[r]
                    (pos_m if modes[b] is GuidanceMode.CFG_STAR else neg_m)[b] = m

        eps_hat = denoiser_to_eps(_denoise(model, x, sigma, pos_m), x, sigma)
        if guided:
            xg = x[guided_rows]
            d_neg = _denoise(model, xg, sigma, neg_m[guided_rows])
            eps_neg = denoiser_to_eps(d_neg, xg, sigma)
            eps_hat[guided_rows] = combine(eps_hat[guided_rows], eps_neg, w_col)
        # PF-ODE: dx/dsigma = -sigma * score = (x - D) / sigma = eps
        x = np.add(x, (sigmas[i + 1] - sigma) * eps_hat, out=trajectory[i + 1])
        _check_finite(x, i + 1, labels)

    ledger.flags.writeable = False
    return trajectory, ledger


def sample(
    model: GmmConditionalModel,
    schedule: SigmaSchedule,
    encoder: ToyTextEncoder,
    tokens: TokenSequence,
    config: GuidanceConfig,
    seed: int,
    fusion: FusionConfig = FusionConfig(),
    attention_bias_weight: float = DEFAULT_ATTENTION_BIAS_WEIGHT,
) -> SamplerRun:
    """Guided sampling of one chain: sample_batch with a batch of one."""
    return sample_batch(
        model, schedule, encoder, [Chain(tokens, config, seed)],
        fusion=fusion, attention_bias_weight=attention_bias_weight,
    )[0]
