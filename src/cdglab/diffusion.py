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

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .degradation import _masks, apply_mask, mask_extent, needs_ranking
from .encoder import PromptState, TokenSequence, ToyTextEncoder, _is_int
from .errors import AllHeadsFilteredError, InvalidInputError, NumericalError
from .guidance import GuidanceConfig, GuidanceMode, combine, denoiser_to_eps
from .importance import FusionConfig, _fuse_heads, _normalize_rows, _stationary_solve
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
        Any other shape raises InvalidInputError.
        """
        e = np.asarray(e, dtype=np.float64)
        d_c = self.maps.shape[2]
        if e.shape == (d_c,):
            return self.maps @ e
        if e.ndim != 2 or e.shape[1] != d_c:
            raise InvalidInputError(f"embeddings of shape {e.shape}, not ({d_c},) or (B, {d_c})")
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


def _log_weights(
    model: GmmConditionalModel, x: np.ndarray, sigma: float | np.ndarray, m: np.ndarray
) -> tuple[np.ndarray, float | np.ndarray, np.ndarray]:
    """Log joint weights (J, B) of latents x (B, d_x), with sigma squared and
    the (J, 1 or B) smoothed variances, component-major: each (J, B, d_x)
    pass is contiguous and a reduction over J runs over the leading axis.

    m is model.means(e) with its component axis first: (J, 1, d_x) for one
    embedding, (J, B, d_x) for one per latent. sigma is one float, or a
    (B, 1) column of one per latent; each row's arithmetic is the same.
    numpy adds a contiguous last axis pairwise and other axes in sequence,
    so callers keep the bits of the row-major (B, J, d_x) sums: weights
    over J as a contiguous axis (_sum_components), posterior means over J
    in sequence, but pairwise at d_x 1, where J was the contiguous axis.
    """
    s2 = sigma * sigma
    var = model.variances[:, None] + (s2.T if isinstance(s2, np.ndarray) else s2)  # (J, 1 or B)
    diff = x - m
    diff *= diff
    sq = diff.sum(axis=-1)  # (J, B)
    logw = (
        model.log_weights[:, None]
        - 0.5 * model.d_x * np.log(2.0 * np.pi * var)
        - sq / (2.0 * var)
    )
    return logw, s2, var


def _sum_components(w: np.ndarray) -> np.ndarray:
    """w (J, B) summed over J as a contiguous last axis: pairwise, as row-major."""
    return np.ascontiguousarray(w.T).sum(axis=-1)


def _denoise(
    model: GmmConditionalModel, x: np.ndarray, sigma: float | np.ndarray, m: np.ndarray
) -> np.ndarray:
    """denoise of latents x (B, d_x) at component-major means m (see
    _log_weights), for a checked sigma."""
    logw, s2, var = _log_weights(model, x, sigma, m)
    comp = model.variances[:, None, None] * x
    comp += s2 * m
    comp /= var[..., None]
    logw -= logw.max(axis=0)
    g = np.exp(logw, out=logw)
    g /= _sum_components(g)
    comp *= g[..., None]
    if model.d_x == 1:
        return _sum_components(comp[..., 0])[:, None]
    return comp.sum(axis=0)


def _checked(model: GmmConditionalModel, x, e) -> tuple[np.ndarray, np.ndarray]:
    """x as a float64 array and the component-major means of e (see
    _log_weights), both finite and of matching shapes: latents (..., d_x)
    under one embedding e (d_c,), or one embedding per row, x (B, d_x)
    under e (B, d_c)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if x.shape[-1:] != (model.d_x,) or (e.ndim > 1 and x.shape != (len(e), model.d_x)):
        raise InvalidInputError(
            f"latents of shape {x.shape} and embeddings of shape {e.shape}"
            f" for d_x {model.d_x}, d_c {model.d_c}"
        )
    m = model.means(e)  # which rejects any other shape of e
    if not (all_finite(x) and all_finite(e)):
        raise InvalidInputError("latents and embeddings must be finite")
    return x, m[:, None] if e.ndim == 1 else m.swapaxes(0, 1)


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
    x, m = _checked(model, x, e)
    _check_sigma(sigma, x, allow_zero=False)
    return _denoise(model, x.reshape(-1, model.d_x), sigma, m).reshape(x.shape)


def log_density(
    model: GmmConditionalModel, x: np.ndarray, sigma: float | np.ndarray, e: np.ndarray
) -> np.ndarray:
    """log p(x; sigma | e) of the sigma-smoothed mixture; sigma 0 is the clean
    one. sigma is one noise level, or a (B, 1) column as in denoise."""
    x, m = _checked(model, x, e)
    _check_sigma(sigma, x, allow_zero=True)
    logw = _log_weights(model, x.reshape(-1, model.d_x), sigma, m)[0]
    peak = logw.max(axis=0)
    # [()] keeps one latent's density a numpy float, as for the row-major sum
    return (peak + np.log(_sum_components(np.exp(logw - peak)))).reshape(x.shape[:-1])[()]


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


def _compute_importance(p: np.ndarray) -> np.ndarray:
    """Per-head token importance (K, H, N) of K stacks (K, H, N, N) of
    row-normalized attention weights, which the solve overwrites.

    One stationary solve covers every head of every stack; a head's result
    does not depend on the rest of the stack. degrade_rows normalizes its
    own fresh weights in place (a copy per call cost diagnose ~10% of its
    items_per_s) and calls this at most once a call: over every key, or at a
    later step over the keys it could not certify. So every solve the
    sampler and the geometry sweep make runs here, and only those.
    """
    k, h, n = p.shape[:3]
    return _stationary_solve(p.reshape(k * h, n, n)).reshape(k, h, n)


class DegradeSet:
    """The rows one call degrades, built by degrade_set.

    Row r is tokens[r], with condition embeddings conditions[r] (N,
    d_model), at extents[r], its (k_content, k_ctxagg) row of an (R, 2)
    array, named labels[r] in errors (e.g. "chain 3"). It ranks under key
    keys[r], or not at all at key -1. The rows of a key share one ranking,
    made from key_states[k], the key's prompt state, at the latent and
    sigma of its first row; `at` indexes each key's first row.

    heads is each key's per-head scores (K, H, N) from the set's last
    degrade_rows call, those of its solve or its certified power iterate,
    or None before one; a later step certifies its ranking from them.
    """

    def __init__(self, labels, tokens, conditions, extents, keys, key_states, at, heads=None):
        self.labels, self.tokens, self.conditions = labels, tokens, conditions
        self.extents, self.keys, self.key_states, self.at = extents, keys, key_states, at
        self.heads = heads

    def __len__(self) -> int:
        return len(self.keys)

    def subset(self, rows: Sequence[int], heads: np.ndarray | None = None) -> DegradeSet:
        """These rows of the set, each ranked under its own key, from the
        prompt states the set already holds; heads, if given, is the
        subset's per-head scores to certify from, (K, H, N), a row a key."""
        ranked = [i for i, r in enumerate(rows) if self.keys[r] >= 0]
        keys = [-1] * len(rows)
        for k, i in enumerate(ranked):
            keys[i] = k
        return DegradeSet(
            [self.labels[r] for r in rows], [self.tokens[r] for r in rows],
            [self.conditions[r] for r in rows], self.extents[rows],
            keys, [self.key_states[self.keys[rows[i]]] for i in ranked], _rows(ranked), heads,
        )


def degrade_set(states: dict[tuple, PromptState], rows: Iterable[tuple]) -> DegradeSet:
    """The DegradeSet of rows (label, tokens, condition embeddings, extent,
    block, latent), each extent a row's mask_extent.

    A row at block None, which callers give a row whose extent needs no
    ranking (see needs_ranking), gets key -1. Another row ranks from the
    state of its (token ids, block) in states, the prompt states the
    caller's encode_stack call returned at the same blocks, which the set
    holds. The latent is any value naming the latent and sigma a row is
    ranked at, such as a chain's seed at the sampler's first step: rows of
    one (token ids, block, latent) share a key.
    """
    labels, tokens, conditions, extents, blocks, latents = zip(*rows)
    index: dict[tuple, int] = {}
    keys, key_states, firsts = [], [], []
    for r, (t, block, latent) in enumerate(zip(tokens, blocks, latents)):
        k = -1
        if block is not None:
            k = index.setdefault((t.ids, block, latent), len(firsts))
            if k == len(firsts):
                key_states.append(states[t.ids, block])
                firsts.append(r)
        keys.append(k)
    extents = np.array(extents)
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


# the later-step certificate (see _certify): its power steps, each by P^2,
# and the least gap it accepts beyond its bound
_CERTIFY_STEPS = 4
_CERTIFY_MARGIN = 1e-9


def _certify(
    p: np.ndarray, rows: DegradeSet, previous: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """Each key's power iterate (K, H, N) from rows.heads, and the keys
    whose ranking it cannot certify to give their rows' previous bits.

    p holds the keys' row-normalized weights P (K, H, N, N), and Q = P^2,
    one product, is row-stochastic with P's stationary vector. From y_0, a
    key's last per-head scores, _CERTIFY_STEPS power steps y_j+1 = y_j Q
    reach y_m, which is y_0 P^2m. Doeblin's coefficient c_h, the sum over
    columns of Q_h's column minimum, bounds 1 - tau_1(Q_h) from below, so
    the stationary vector lies within e_h = (1 - c_h) / c_h * |y_m -
    y_m-1|_1 of y_m in l1 (Seneta 1988), each of its scores within e_h / 2,
    and each unnormalized root-mean-square fused score within beta =
    sqrt(sum_h (e_h / 2)^2 / H) of y_m's. The normalization by the total
    does not change the ranking. A row keeps its previous bits if they
    replace exactly its extent of each type (the two types hold every
    position) and, for each type it replaces in part, every replaced
    position of that type outscores every kept one by more than 2 beta +
    _CERTIFY_MARGIN in y_m's fusion: its bits are then the top k a solve
    gives, whatever `previous` was. The margin covers the rounding of the
    solve and of Q. A key is certified when every row of it is; a c_h of 0,
    or a bound that is not finite, certifies nothing. The bound and the
    gaps are Python floats, a few a key, so they raise no floating-point
    warning.

    Q mixes faster than P, so its coefficient is the larger: on per_step
    inputs it certifies 90% of later steps, where 8 steps by P with P's own
    coefficient certified 86%, at a higher cost than the product and 4
    steps by Q.
    """
    q = p @ p
    y = rows.heads[:, :, None]  # (K, H, 1, N)
    for _ in range(_CERTIFY_STEPS):
        last, y = y, y @ q
    moved = np.abs(y - last).sum(axis=3)[..., 0].tolist()  # (K, H)
    doeblin = q.min(axis=2).sum(axis=2).tolist()  # (K, H)
    y = y[:, :, 0]
    h = y.shape[1]
    squares = (y * y).sum(axis=1).tolist()  # (K, N): H times each fused score squared
    needed = []  # 2 beta + margin a key, as 4 beta^2 = sum_h e_h^2 / H; NaN certifies nothing
    for c, m in zip(doeblin, moved):
        if all(ch > 0.0 for ch in c):
            e = [(1.0 - ch) / ch * mh for ch, mh in zip(c, m)]
            needed.append(math.sqrt(sum(eh * eh for eh in e) / h) + _CERTIFY_MARGIN)
        else:
            needed.append(math.nan)
    uncertain = set()
    for r, k in enumerate(rows.keys):
        if k < 0 or k in uncertain:
            continue
        tokens, bits, sq = rows.tokens[r], previous[r].tolist(), squares[k]
        for positions, count in zip(
            (tokens.content_positions, tokens.ctxagg_positions), rows.extents[r].tolist()
        ):
            replaced = [sq[i] for i in positions if not bits[i]]
            if len(replaced) != count:
                uncertain.add(k)
                break
            if 0 < count < len(positions):
                kept = max(sq[i] for i in positions if bits[i])
                if not math.sqrt(min(replaced) / h) - math.sqrt(kept / h) > needed[k]:
                    uncertain.add(k)
                    break
    return y, sorted(uncertain)


def degrade_rows(
    encoder: ToyTextEncoder,
    rows: DegradeSet,
    x: np.ndarray,
    sigma: float | np.ndarray,
    fusion: FusionConfig,
    bias_weight: float,
    previous: np.ndarray | None = None,
) -> tuple[np.ndarray, list[int], np.ndarray | None]:
    """Degradation masks (B, N) of rows at latents x (B, d_x) and noise levels sigma.

    sigma is one noise level for every row, or a (B, 1) column of one per
    row, as in denoise. Each key is ranked at its first row's latent and
    sigma: the keys' attention weights are one (K, H, N, N) array, each row
    of which is normalized in place, one stationary solve ranks the keys
    (through _compute_importance), one stacked fusion fuses them, and one
    masking pass masks their rows from their keys' scores. These are the
    kernels behind stationary_scores, fuse_head_stacks and build_mask,
    called directly on arrays this call made, so each check that can fail
    here runs once: weights that are not finite or a row of zeros, a
    singular system or a solution that is not finite, a head filter that
    rejects every head of a key (named by that key's first row and its
    sigma), and a partial mask without scores.

    A later step, one given `previous`, the rows' bits from the step
    before, on a set holding heads (see DegradeSet) and with the variance
    filter off, first tries to certify each key from its weights (see
    _certify). A certified key keeps its rows' previous bits and is neither
    solved, fused nor masked; the solve, the fusion and the masking run over
    the other keys alone, and the masking over the unranked rows, and give
    each of them the bits a full step would, as each key's are its own. The
    set's heads then hold each key's new per-head scores.

    Returns every row's keep bits, the indices of the rows whose bits differ
    from `previous` (every row when it is None), and those rows' pooled
    degraded embeddings (C, encoder.d_c), or None when no row changed (the
    other rows' embeddings still hold).
    """
    column = isinstance(sigma, np.ndarray)
    if column and sigma.shape != (len(rows), 1):
        raise InvalidInputError(f"sigma column of shape {sigma.shape} for {len(rows)} rows")
    scores, redo = None, None
    if rows.key_states:
        at = rows.at
        p = _normalize_rows(_stacked_weights(
            rows.key_states, x[at], sigma[at] if column else sigma, bias_weight
        ))
        unsure = range(len(p))  # the keys solved: every one, unless certified
        if previous is not None and rows.heads is not None and not fusion.enabled:
            rows.heads, unsure = _certify(p, rows, previous)
        if len(unsure) == len(p):
            rows.heads = solved = _compute_importance(p)
        else:  # masked again: the rows of the keys solved, and the unranked rows
            redo = [r for r, k in enumerate(rows.keys) if k < 0 or k in unsure]
            solved = None
            if unsure:
                solved = rows.heads[unsure] = _compute_importance(p[unsure])
        del p  # the weights live no longer than the solve
        if redo == []:  # every row certified: each keeps its bits
            return previous, [], None
        try:
            scores = None if solved is None else _fuse_heads(solved, fusion)
        except AllHeadsFilteredError as exc:
            r = rows.keys.index(exc.index)
            at_sigma = float(sigma[r, 0]) if column else sigma
            raise AllHeadsFilteredError(
                f"{exc} for {rows.labels[r]} at sigma {at_sigma}", exc.index
            ) from exc
    if redo is None:
        keep = _masks(rows.tokens, scores, rows.keys, rows.extents)
    else:  # the certified rows keep their bits
        keep = previous.copy()
        keep[redo] = _masks(
            [rows.tokens[r] for r in redo], scores,
            [unsure.index(k) if k >= 0 else -1 for k in (rows.keys[r] for r in redo)],
            rows.extents[redo],
        )
    if previous is None:
        changed = list(range(len(rows)))
    else:
        differs = keep != previous
        # most later steps leave every mask as it was
        if not np.count_nonzero(differs):
            return keep, [], None
        changed = differs.any(axis=1).nonzero()[0].tolist()
    degraded = apply_mask(
        np.array([rows.conditions[r] for r in changed]),
        encoder.null_condition(),
        keep[changed],
    )
    return keep, changed, encoder.pool(degraded)


def check_widths(model: GmmConditionalModel, encoder: ToyTextEncoder) -> None:
    """Raises InvalidInputError unless encoder was built for model's widths."""
    if (encoder.d_x, encoder.d_c) != (model.d_x, model.d_c):
        raise InvalidInputError(f"encoder built for (d_x, d_c) = ({encoder.d_x}, {encoder.d_c}),"
                                f" model has ({model.d_x}, {model.d_c})")


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


def _chain_key(chain: Chain, extent: tuple[int, int] | None, block: int | None) -> tuple:
    """Everything that decides a chain's trajectory within one sample_batch
    call; extent is its mask_extent, None when it does not degrade, and
    block the block it ranks at, None when it does not rank.

    A degradation mode's ratio enters only through the mask's extent: the
    same prompt at the same latent ranks its tokens the same way, so equal
    extents give equal masks at every step. Whether a chain ranks at all
    follows from its extent too (see needs_ranking): the mask of one that
    does not is fixed, so its block and mask reuse do not enter the key.
    """
    config = chain.config
    key = (chain.tokens.ids, chain.seed, config.mode, config.guidance_scale)
    if extent is None:
        return key
    return key + (block, None if block is None else config.reuse_first_step_mask, extent)


def _rankings(config: GuidanceConfig, steps: int) -> int:
    """The wpr_call_count a degrading chain reports: 1 with first-step
    reuse, else one a step, and 0 at the ratio-1.0 boundary alone. It is not
    the solves made: a chain whose extent needs no ranking, or a certified
    later step, makes none."""
    if config.r_deg == 1.0:
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
    the degradation modes, the mask's extent and, for a chain that ranks,
    block and mask reuse) are integrated once, as one row. Per step there
    is one denoise over every row at its positive condition, one over the
    guided rows at their negative condition, and one combine over the
    guided rows with a column of their scales. A chain at w = 1 is not
    guided: its prediction is the positive one, so it skips the negative.
    Each distinct prompt is pooled and its component means computed once
    per call, and a degraded condition's again only when its mask changes.
    The trajectories are row views of one (steps + 1, B, d_x) array, a row
    per chain.

    The distinct prompts take one encode_stack walk, which also builds the call's prompt states.
    Masks for the degradation modes are built from the intervention block's
    attention map, by one degrade_rows call per step over the rows that
    build one then; with reuse_first_step_mask the importance ranking is
    computed once at the first step and reused, and a mask whose extent
    replaces no type in part bypasses importance computation entirely.
    The degraded embedding is re-pooled only when a row's mask changes.
    Raises InvalidInputError, before any work, unless encoder was built for
    model's widths and every chain's seed is an int >= 0 (a numpy integer,
    not a bool or float), and NumericalError at the first non-finite latent,
    naming the first chain of its row.
    """
    check_widths(model, encoder)
    for b, chain in enumerate(chains):
        if not _is_int(chain.seed):
            raise InvalidInputError(f"chain {b}: seed must be an int, got {chain.seed!r}")
        if chain.seed < 0:
            raise InvalidInputError(f"chain {b}: seed must be >= 0")
    if not chains:
        return []
    # each distinct chain is integrated once, as the row of its first
    # occurrence: firsts[u] is row u's first chain, row_at[b] chain b's row
    firsts, row_at, extents, blocks = [], [], [], []
    index: dict[tuple, int] = {}
    for b, chain in enumerate(chains):
        config, extent, block = chain.config, None, None
        if config.mode.uses_degradation:
            extent = mask_extent(chain.tokens, config.ratios)
            if needs_ranking(chain.tokens, extent):
                block = config.lambda_block
        u = index.setdefault(_chain_key(chain, extent, block), len(firsts))
        if u == len(firsts):
            firsts.append(b)
            extents.append(extent)
            blocks.append(block)
        row_at.append(u)
    trajectory, ledger = _integrate(
        model, schedule, encoder, [chains[b] for b in firsts], firsts, extents, blocks,
        fusion, attention_bias_weight,
    )
    if len(firsts) < len(chains):
        trajectory = trajectory[:, row_at]  # a copy: no run shares its rows
    return [
        SamplerRun(
            sigmas=schedule.sigmas,
            trajectory=trajectory[:, b],
            # read-only, so duplicate chains may share their row
            masks=None if extents[u] is None else ledger[:, u],
            wpr_call_count=0 if extents[u] is None else _rankings(chain.config, schedule.steps),
        )
        for b, (chain, u) in enumerate(zip(chains, row_at))
    ]


def _integrate(
    model: GmmConditionalModel,
    schedule: SigmaSchedule,
    encoder: ToyTextEncoder,
    chains: Sequence[Chain],
    labels: Sequence[int],
    extents: Sequence[tuple[int, int] | None],
    blocks: Sequence[int | None],
    fusion: FusionConfig,
    attention_bias_weight: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Trajectories (steps + 1, B, d_x) of distinct chains and the read-only
    ledger (steps, B, N) of their keep bits per step, all True for a chain
    that does not degrade; labels[b] is the batch index naming chain b in
    errors, extents[b] its mask_extent (None if it does not degrade) and
    blocks[b] the block it ranks at (None if it does not rank)."""
    sigmas = schedule.sigmas
    steps = len(sigmas) - 1
    n = len(chains)

    # one walk over the distinct prompts, a row at each block some chain
    # ranks one at, or at None; the call holds the states it returns
    wanted: dict[tuple[int, ...], tuple[TokenSequence, dict]] = {}
    for chain, block in zip(chains, blocks):
        at = wanted.setdefault(chain.tokens.ids, (chain.tokens, {}))[1]
        if block is not None:
            at[block] = None
    walked = [(t, block) for t, at in wanted.values() for block in at or [None]]
    embeddings, states = encoder.encode_stack(*zip(*walked))
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
    # and, when guided, one negative: the chain's row of pos_m and neg_m,
    # component-major (J, B, d_x) sides 0 and 1 of one array. The degraded
    # embedding is CFG*'s positive and CDG's negative, and its means are
    # filled in when its mask changes
    means = np.empty((model.n_components, 2, n, model.d_x))
    pos_m, neg_m = means[:, 0], means[:, 1]
    side = [int(mode is not GuidanceMode.CFG_STAR) for mode in modes]
    prompt_pos = [b for b, s in enumerate(side) if s]
    if prompt_pos:
        # pool and map each distinct prompt once; pool and means work row by
        # row, so a chain's row is its prompt's bit for bit
        distinct: dict[tuple[int, ...], int] = {}
        prompt_of = [distinct.setdefault(chains[b].tokens.ids, len(distinct)) for b in prompt_pos]
        m = model.means(encoder.pool(np.array([conditions[ids] for ids in distinct])))
        pos_m[:, prompt_pos] = m[prompt_of].swapaxes(0, 1)
    null_neg = [b for b in guided if modes[b] is not GuidanceMode.CDG]
    if null_neg:
        null = encoder.pool(encoder.null_condition())[None]
        neg_m[:, null_neg] = model.means(null).swapaxes(0, 1)

    # the chains degrading at step 0, ranked once per (prompt, block, seed),
    # as they share their latent there, and the rows of them ranking tokens
    # again at every later step: step 0 gives those a set of their own, a
    # key a row, holding its solve's per-head scores to certify from
    degrading = [b for b, extent in enumerate(extents) if extent is not None]
    degraded_at = [((), None, None)] * 2
    again = []
    if degrading:
        rows = degrade_set(states, [
            (f"chain {labels[b]}", chains[b].tokens, conditions[chains[b].tokens.ids],
             extents[b], blocks[b], chains[b].seed)
            for b in degrading
        ])
        degraded_at[0] = (degrading, _rows(degrading), rows)
        again = [
            r for r, b in enumerate(degrading)
            if rows.keys[r] >= 0 and not chains[b].config.reuse_first_step_mask
        ]

    # one draw per distinct seed
    noise: dict[int, np.ndarray] = {}
    for chain in chains:
        if chain.seed not in noise:
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
                encoder, active_rows, x[index], sigma, fusion, attention_bias_weight,
                ledger[i - 1, index] if i else None,
            )
            if i:
                ledger[i, index] = keep
            else:  # a chain keeps its step-0 mask until a later step rebuilds it
                ledger[:, index] = keep
                if again:
                    ranked = [degrading[r] for r in again]
                    degraded_at[1] = (ranked, _rows(ranked), rows.subset(
                        again, rows.heads[[rows.keys[r] for r in again]]
                    ))
            if changed:  # a row at a time: at one row, a fancy-indexed write costs 4x
                for r, m in zip(changed, model.means(e_deg)):
                    b = active[r]
                    means[:, side[b], b] = m

        eps_hat = denoiser_to_eps(_denoise(model, x, sigma, pos_m), x, sigma)
        if guided:
            xg = x[guided_rows]
            d_neg = _denoise(model, xg, sigma, neg_m[:, guided_rows])
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
