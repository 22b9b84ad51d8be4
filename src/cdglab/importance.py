"""Token importance from attention graphs.

Per-head scores come from a weighted PageRank power iteration on the
row-normalized attention matrix (no damping: softmax attention is strictly
positive, so the chain is irreducible and the iteration converges). Head
fusion combines a variance filter with root-mean-square aggregation, and a
cross-attention column-sum baseline is provided for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack as _lapack

from .errors import AllHeadsFilteredError, DegenerateGraphError, InvalidInputError

DEFAULT_EPSILON = 1e-8
DEFAULT_MAX_ITERS = 1000


@dataclass
class AttentionMap:
    """Stack of per-head nonnegative N x N matrices."""

    heads: np.ndarray  # (H, N, N)

    def __post_init__(self):
        self.heads = np.asarray(self.heads, dtype=np.float64)
        if self.heads.ndim != 3 or self.heads.shape[1] != self.heads.shape[2]:
            raise InvalidInputError("expected shape (heads, N, N)")
        if (self.heads < 0).any() or not np.isfinite(self.heads).all():
            raise InvalidInputError("attention entries must be finite and >= 0")

    @property
    def n_heads(self) -> int:
        return self.heads.shape[0]


@dataclass
class ImportanceScores:
    scores: np.ndarray  # N nonnegative reals summing to 1
    sorted_indices: np.ndarray  # descending score, ties by ascending position
    converged: bool = True


def _rank(scores: np.ndarray) -> np.ndarray:
    # stable sort on negated scores: ties resolve to the lower position index
    return np.argsort(-scores, kind="stable")


def _make_scores(raw: np.ndarray, converged: bool = True) -> ImportanceScores:
    total = raw.sum()
    if total <= 0:
        raise InvalidInputError("scores must have positive mass")
    s = raw / total
    return ImportanceScores(scores=s, sorted_indices=_rank(s), converged=converged)


def _row_normalized_transpose(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError("attention matrix must be square")
    if (a < 0).any() or not np.isfinite(a).all():
        raise InvalidInputError("attention entries must be finite and >= 0")
    row_sums = a.sum(axis=1)
    if (row_sums == 0).any():
        raise DegenerateGraphError("attention matrix has an all-zero row")
    return np.ascontiguousarray((a / row_sums[:, None]).T)


def wpr_single_head(
    a: np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> ImportanceScores:
    """Weighted-PageRank power iteration on one attention head.

    Row-normalizes a, starts from the uniform vector, and iterates
    s <- normalize(a^T s) until the L1 change drops below epsilon. If the
    iteration budget runs out, the last iterate is returned with
    converged=False.
    """
    at = _row_normalized_transpose(a)
    n = at.shape[0]
    s = np.full(n, 1.0 / n)
    converged = False
    for _ in range(max_iters):
        new = at @ s
        new /= new.sum()
        if np.abs(new - s).sum() < epsilon:
            s = new
            converged = True
            break
        s = new
    return ImportanceScores(scores=s, sorted_indices=_rank(s), converged=converged)


def _wpr_core(
    heads: np.ndarray, epsilon: float, max_iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Squared-operator power iteration over a stack of heads.

    Converges to the same fixed point as wpr_single_head per head. Instead
    of applying the column-stochastic operator B = row_norm(A)ᵀ one step at
    a time, it squares B repeatedly, so the iterate after k rounds equals
    the plain iterate after 2^k steps; the squaring stops once every head's
    successive iterates differ by less than epsilon in L1 (a strictly
    tighter stop than the sequential rule, since the gap shrinks doubly
    exponentially). max_iters caps the equivalent number of plain steps.
    Returns (scores (H, N), converged flags (H,)).
    """
    h, n = heads.shape[0], heads.shape[1]
    row_sums = heads.sum(axis=2)
    if (row_sums == 0).any():
        raise DegenerateGraphError("attention head has an all-zero row")
    power = np.ascontiguousarray(np.swapaxes(heads / row_sums[:, :, None], 1, 2))
    prev = np.full((h, n), 1.0 / n)
    applied = 1
    while True:
        # power stays column-stochastic up to rounding, so power @ uniform
        # is the current normalized iterate.
        cur = power.mean(axis=2)
        diffs = np.abs(cur - prev).sum(axis=1)
        done = diffs < epsilon
        if done.all() or applied >= max_iters:
            break
        prev = cur
        power = power @ power
        applied *= 2
    cur /= cur.sum(axis=1, keepdims=True)
    return cur, done


def wpr_all_heads(
    amap: AttentionMap,
    epsilon: float = DEFAULT_EPSILON,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> list[ImportanceScores]:
    """Power iteration for every head at once, accelerated by squaring.

    Per head this reaches the same fixed point as wpr_single_head (both
    stop once successive iterates differ by less than epsilon in L1).
    """
    scores, done = _wpr_core(amap.heads, epsilon, max_iters)
    ranks = np.argsort(-scores, axis=1, kind="stable")
    return [
        ImportanceScores(scores=scores[i], sorted_indices=ranks[i], converged=bool(done[i]))
        for i in range(amap.n_heads)
    ]


def head_variance(scores: ImportanceScores) -> float:
    """Population variance of the score values of one head."""
    return float(np.var(scores.scores))


@dataclass
class FusionConfig:
    """Variance-filter bounds for head fusion; disabled keeps every head."""

    v_min: float = 0.0
    v_max: float = 0.0
    enabled: bool = False

    def __post_init__(self):
        if self.enabled and not (0.0 <= self.v_min <= self.v_max):
            raise InvalidInputError("need 0 <= v_min <= v_max when enabled")

    @classmethod
    def from_percentiles(cls, variances: list[float]) -> "FusionConfig":
        """Data-adaptive bounds: 10th / 90th percentile of observed variances."""
        lo, hi = np.percentile(np.asarray(variances, dtype=np.float64), [10, 90])
        return cls(v_min=float(lo), v_max=float(hi), enabled=True)


def _stationary_scores(heads: np.ndarray) -> np.ndarray:
    """Exact WPR fixed points for a stack of heads via direct linear solve.

    The power iteration's limit is the stationary vector of the
    column-stochastic operator B = row_norm(A)ᵀ, i.e. the solution of
    (B - I) s = 0 with sum(s) = 1; for strictly positive attention it is
    unique. One batched solve replaces the iteration at machine precision,
    which matters on the sampler's per-step path. Returns scores (H, N).
    """
    h, n = heads.shape[0], heads.shape[1]
    row_sums = heads.sum(axis=2)
    if (row_sums == 0).any():
        raise DegenerateGraphError("attention head has an all-zero row")
    m = np.swapaxes(heads / row_sums[:, :, None], 1, 2)
    # subtract I in place through the transposed view (the divide above
    # already produced a fresh array)
    diag = np.arange(n)
    m[:, diag, diag] -= 1.0
    # (B - I) has rank n-1; the normalization constraint replaces one row
    m[:, -1, :] = 1.0
    # per-head dgesv: at these sizes numpy's batched solve spends most of
    # its time in dispatch, so the direct LAPACK binding wins handily
    out = np.empty((h, n))
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    for i in range(h):
        _, _, sol, info = _lapack.dgesv(
            m[i], rhs.copy(), overwrite_a=True, overwrite_b=True
        )
        if info != 0:
            raise DegenerateGraphError("stationary system is singular")
        out[i] = sol
    # overflowing weights (e.g. a huge attention bias) turn into NaN rows
    # that dgesv still solves with info == 0
    if not np.isfinite(out).all():
        raise DegenerateGraphError("stationary solution is not finite")
    return out


def _fuse_stack(
    stack: np.ndarray, converged: bool, cfg: FusionConfig | None
) -> ImportanceScores:
    if cfg is not None and cfg.enabled:
        variances = np.var(stack, axis=1)
        keep = (variances >= cfg.v_min) & (variances <= cfg.v_max)
        if not keep.any():
            raise AllHeadsFilteredError("variance filter rejected every head")
        stack = stack[keep]
    fused = np.sqrt((stack**2).mean(axis=0))
    out = _make_scores(fused)
    out.converged = converged
    return out


def fuse_heads(
    per_head: list[ImportanceScores], cfg: FusionConfig | None = None
) -> ImportanceScores:
    """Root-mean-square fusion over heads passing the variance filter."""
    if not per_head:
        raise InvalidInputError("need at least one head")
    stack = np.stack([h.scores for h in per_head])
    converged = all(h.converged for h in per_head)
    return _fuse_stack(stack, converged, cfg)


def cross_attention_baseline(c: np.ndarray) -> ImportanceScores:
    """Column-sum importance from a cross-attention matrix (rows: image tokens)."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2:
        raise InvalidInputError("expected a 2-d cross-attention matrix")
    if (c < 0).any() or not np.isfinite(c).all():
        raise InvalidInputError("cross-attention entries must be finite and >= 0")
    return _make_scores(c.sum(axis=0))
