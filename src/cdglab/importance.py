"""Token importance from attention graphs.

A head's score vector is its weighted-PageRank fixed point: the stationary
distribution of the row-normalized attention matrix (no damping: softmax
attention is strictly positive, so the chain is irreducible and the fixed
point unique). stationary_scores computes it exactly for a stack of heads
with one batched linear solve; the power iteration that converges to it is
the tests' reference. Head fusion is root-mean-square aggregation behind an
optional variance filter, and a cross-attention column-sum baseline is
provided for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllHeadsFilteredError, DegenerateGraphError, InvalidInputError
from .linalg import all_finite


def ranking(scores: np.ndarray) -> np.ndarray:
    """Positions by descending score; a stable sort on the negated scores,
    so ties resolve to the lower position. The one statement of the tie rule."""
    return (-scores).argsort(kind="stable")


def _row_normalized(a: np.ndarray) -> np.ndarray:
    """Checked attention weights of a stack of heads, each row of a copy
    scaled to sum to 1."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 3 or a.shape[-1] != a.shape[-2] or 0 in a.shape:
        raise InvalidInputError("expected attention of shape (heads, N, N), N >= 1")
    if a.min() < 0:
        raise InvalidInputError("attention weights must be >= 0")
    return _normalize_rows(a.copy())


def _normalize_rows(a: np.ndarray) -> np.ndarray:
    """Scales each row of a, a float64 stack (heads, N, N) of weights >= 0,
    to sum to 1, in place. Raises DegenerateGraphError for a weight that is
    not finite or a row of zeros."""
    row_sums = a.sum(axis=-1, keepdims=True)
    # a NaN or infinite weight, e.g. one overflowed by a huge attention bias,
    # makes its row sum non-finite
    if not all_finite(row_sums):
        raise DegenerateGraphError("attention weights are not finite")
    # no weight is negative, so only a row of zeros sums to zero
    if np.count_nonzero(row_sums) < row_sums.size:
        raise DegenerateGraphError("attention matrix has an all-zero row")
    a /= row_sums
    return a


@dataclass(frozen=True)
class FusionConfig:
    """Variance-filter bounds for head fusion; disabled keeps every head."""

    v_min: float = 0.0
    v_max: float = 0.0
    enabled: bool = False

    def __post_init__(self):
        if self.enabled and not (0.0 <= self.v_min <= self.v_max):
            raise InvalidInputError("need 0 <= v_min <= v_max when enabled")


def stationary_scores(weights: np.ndarray) -> np.ndarray:
    """Exact WPR fixed points of a stack of attention heads, shape (H, N).

    The power iteration's limit is the stationary vector of the
    column-stochastic operator B = row_norm(A)ᵀ, i.e. the solution of
    (B - I) s = 0 with sum(s) = 1. One batched linear solve finds it for
    every head at machine precision. Rows need not be normalized on input:
    the row normalization absorbs any per-row scale, such as the softmax's.
    This entry checks the weights' shape and sign and solves on a copy; the
    sampler, whose weights are fresh products of exps, calls _normalize_rows
    and _stationary_solve on its own array instead.
    """
    return _stationary_solve(_row_normalized(weights))


def _stationary_solve(p: np.ndarray) -> np.ndarray:
    """WPR fixed points (H, N) of p, a stack (H, N, N) of row-normalized
    float64 weights, which the solve overwrites (or a copy, if p is not
    contiguous). Raises DegenerateGraphError for a singular system or a
    solution that is not finite."""
    h, n = p.shape[:2]
    # flat rows of p: B - I is built in place, as B is p's transpose per head
    flat = p.reshape(h, n * n)
    flat[:, :: n + 1] -= 1.0
    # (B - I) has rank n-1; the normalization constraint replaces its last
    # row, which is the last column of p
    flat[:, n - 1 :: n] = 1.0
    rhs = np.zeros((h, n, 1))
    rhs[:, -1] = 1.0
    try:
        out = np.linalg.solve(flat.reshape(h, n, n).transpose(0, 2, 1), rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateGraphError("stationary system is singular") from exc
    if not all_finite(out):
        raise DegenerateGraphError("stationary solution is not finite")
    return out


def fuse_head_stacks(scores: np.ndarray, cfg: FusionConfig = FusionConfig()) -> np.ndarray:
    """Root-mean-square fusion of K per-head score stacks (K, H, N) to (K, N).

    Each fused row is normalized to sum to 1. With the variance filter
    enabled, only the heads of a stack whose score variance lies in
    [v_min, v_max] take part in its row; a disabled filter keeps every
    head. A dropped head adds an exact zero to its row's sum of
    squares, so each row equals the fusion of its own stack alone. Raises
    AllHeadsFilteredError, with the index of the first stack whose every
    head the filter rejects. This entry checks the stack's shape; the
    sampler calls _fuse_heads on its own solve's float64 output instead.
    """
    stack = np.asarray(scores, dtype=np.float64)
    if stack.ndim != 3 or 0 in stack.shape[:2]:
        raise InvalidInputError("expected a non-empty (stacks, heads, N) score stack")
    return _fuse_heads(stack, cfg)


def _fuse_heads(stack: np.ndarray, cfg: FusionConfig) -> np.ndarray:
    """fuse_head_stacks of a non-empty float64 stack (K, H, N)."""
    squares = stack**2
    kept = stack.shape[1]
    if cfg.enabled:
        variances = np.var(stack, axis=2)
        keep = (variances >= cfg.v_min) & (variances <= cfg.v_max)
        kept = keep.sum(axis=1, keepdims=True)  # (K, 1) heads per stack
        if not kept.all():
            raise AllHeadsFilteredError(
                "variance filter rejected every head", index=int(kept.argmin())
            )
        squares[~keep] = 0.0
    raw = squares.sum(axis=1)
    raw /= kept
    np.sqrt(raw, out=raw)
    total = raw.sum(axis=1, keepdims=True)
    # a root mean square is >= 0 (or NaN), so a row lacks positive mass
    # only at a total of exactly 0
    if np.count_nonzero(total) < len(total):
        raise InvalidInputError("scores must have positive mass")
    raw /= total
    return raw


def cross_attention_baseline(c: np.ndarray) -> np.ndarray:
    """Column-sum importance from a cross-attention matrix (rows: image tokens),
    normalized to sum to 1."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2:
        raise InvalidInputError("expected a 2-d cross-attention matrix")
    if (c < 0).any() or not np.isfinite(c).all():
        raise InvalidInputError("cross-attention entries must be finite and >= 0")
    raw = c.sum(axis=0)
    total = raw.sum()
    if total <= 0:
        raise InvalidInputError("scores must have positive mass")
    return raw / total
