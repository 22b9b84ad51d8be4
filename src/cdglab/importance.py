"""Token importance from attention graphs.

A head's score vector is its weighted-PageRank fixed point: the stationary
distribution of the row-normalized attention matrix (no damping: softmax
attention is strictly positive, so the chain is irreducible and the fixed
point unique). stationary_scores computes it exactly for a stack of heads
with one batched linear solve; wpr_single_head is the power iteration that
converges to it, kept as the reference. Head fusion is root-mean-square
aggregation behind an optional variance filter, and a cross-attention
column-sum baseline is provided for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllHeadsFilteredError, DegenerateGraphError, InvalidInputError

DEFAULT_EPSILON = 1e-8
DEFAULT_MAX_ITERS = 1000


@dataclass
class ImportanceScores:
    scores: np.ndarray  # N nonnegative reals summing to 1
    converged: bool = True

    @property
    def sorted_indices(self) -> np.ndarray:
        """Positions by descending score; a stable sort on the negated scores,
        so ties resolve to the lower position."""
        return (-self.scores).argsort(kind="stable")


def _make_scores(raw: np.ndarray) -> ImportanceScores:
    total = raw.sum()
    if total <= 0:
        raise InvalidInputError("scores must have positive mass")
    s = raw / total
    return ImportanceScores(scores=s)


def _row_normalized(a: np.ndarray, ndim: int) -> np.ndarray:
    """Checked attention weights, each row scaled to sum to 1.

    a is one square matrix (ndim 2) or a stack of heads (ndim 3).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2] or 0 in a.shape:
        shape = "(heads, N, N)" if ndim == 3 else "(N, N)"
        raise InvalidInputError(f"expected attention of shape {shape}, N >= 1")
    lo = a.min()
    if lo < 0:
        raise InvalidInputError("attention weights must be >= 0")
    row_sums = a.sum(axis=-1, keepdims=True)
    # a NaN or infinite weight, e.g. one overflowed by a huge attention bias,
    # makes its row sum non-finite, and the largest sum NaN or infinite
    if not row_sums.max() < np.inf:
        raise DegenerateGraphError("attention weights are not finite")
    # only a zero weight can leave a row summing to zero
    if lo == 0 and row_sums.min() == 0:
        raise DegenerateGraphError("attention matrix has an all-zero row")
    return a / row_sums


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
    at = np.ascontiguousarray(_row_normalized(a, 2).T)
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
    return ImportanceScores(scores=s, converged=converged)


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
        v = np.asarray(variances, dtype=np.float64)
        if v.size == 0:
            raise InvalidInputError("need at least one head variance")
        lo, hi = np.percentile(v, [10, 90])
        return cls(v_min=float(lo), v_max=float(hi), enabled=True)


def stationary_scores(weights: np.ndarray) -> np.ndarray:
    """Exact WPR fixed points of a stack of attention heads, shape (H, N).

    The power iteration's limit is the stationary vector of the
    column-stochastic operator B = row_norm(A)ᵀ, i.e. the solution of
    (B - I) s = 0 with sum(s) = 1. One batched linear solve finds it for
    every head at machine precision. Rows need not be normalized on input:
    the row normalization absorbs any per-row scale, such as the softmax's.
    """
    # a fresh array, so B - I is built in place: B is its transpose per head
    p = np.ascontiguousarray(_row_normalized(weights, 3))
    h, n = p.shape[0], p.shape[1]
    p.reshape(h, n * n)[:, :: n + 1] -= 1.0
    # (B - I) has rank n-1; the normalization constraint replaces its last
    # row, which is the last column of p
    p[:, :, -1] = 1.0
    rhs = np.zeros((h, n, 1))
    rhs[:, -1] = 1.0
    try:
        out = np.linalg.solve(p.transpose(0, 2, 1), rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateGraphError("stationary system is singular") from exc
    if not np.isfinite(out).all():
        raise DegenerateGraphError("stationary solution is not finite")
    return out


def fuse_heads(scores: np.ndarray, cfg: FusionConfig | None = None) -> ImportanceScores:
    """Root-mean-square fusion of a per-head score stack (H, N).

    With the variance filter enabled, only heads whose score variance lies
    in [v_min, v_max] take part; a disabled or absent filter keeps every head.
    """
    stack = np.asarray(scores, dtype=np.float64)
    if stack.ndim != 2 or stack.shape[0] == 0:
        raise InvalidInputError("expected a non-empty (heads, N) score stack")
    if cfg is not None and cfg.enabled:
        variances = np.var(stack, axis=1)
        keep = (variances >= cfg.v_min) & (variances <= cfg.v_max)
        if not keep.any():
            raise AllHeadsFilteredError("variance filter rejected every head")
        stack = stack[keep]
    return _make_scores(np.sqrt((stack**2).sum(axis=0) / len(stack)))


def cross_attention_baseline(c: np.ndarray) -> ImportanceScores:
    """Column-sum importance from a cross-attention matrix (rows: image tokens)."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2:
        raise InvalidInputError("expected a 2-d cross-attention matrix")
    if (c < 0).any() or not np.isfinite(c).all():
        raise InvalidInputError("cross-attention entries must be finite and >= 0")
    return _make_scores(c.sum(axis=0))
