"""Stratified degradation: unified-ratio mapping, binary masks, masked interpolation.

A single ratio in [0, 2] first consumes content tokens (most important
first), then context-aggregating tokens, producing a binary keep/replace mask
over positions. Applying the mask interpolates rows of the condition with the
corresponding rows of the null condition.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .encoder import TokenSequence, TokenType
from .errors import InvalidInputError, InvalidRatioError
from .importance import ranking
from .linalg import all_finite


@dataclass(frozen=True)
class DegradationRatios:
    r_deg: float
    r_content: float
    r_ctxagg: float


def map_ratio(r_deg: float) -> DegradationRatios:
    """Split the unified ratio into per-type replacement ratios."""
    if not (0.0 <= r_deg <= 2.0) or not math.isfinite(r_deg):
        raise InvalidRatioError(f"degradation ratio {r_deg} outside [0, 2]")
    return DegradationRatios(
        r_deg=r_deg,
        r_content=min(r_deg, 1.0),
        r_ctxagg=max(r_deg - 1.0, 0.0),
    )


def mask_extent(tokens: TokenSequence, ratios: DegradationRatios) -> tuple[int, int]:
    """(k_content, k_ctxagg): floor(ratio * count) positions of each type."""
    return (
        math.floor(ratios.r_content * len(tokens.content_positions)),
        math.floor(ratios.r_ctxagg * len(tokens.ctxagg_positions)),
    )


def needs_ranking(tokens: TokenSequence, extent: Sequence[int]) -> bool:
    """Whether a mask at extent (k_content, k_ctxagg) replaces some type in
    part, so that its bits depend on the importance ranking."""
    return any(
        0 < k < len(positions)
        for positions, k in zip((tokens.content_positions, tokens.ctxagg_positions), extent)
    )


def type_order(tokens: TokenSequence, scores: np.ndarray, ttype: TokenType) -> list[int]:
    """Positions of one token type by descending score: the type's part of
    the ranking, so ties still go to the lower position."""
    return _ranked_positions(tokens.positions_of(ttype), scores).tolist()


def _ranked_positions(positions: Sequence[int], scores: np.ndarray) -> np.ndarray:
    """positions (intp) by descending score. A stable sort restricted to a
    subset of positions keeps their order in the full ranking."""
    positions = np.array(positions, dtype=np.intp)
    return positions[ranking(scores[positions])]


def build_mask(
    tokens: TokenSequence, scores: np.ndarray | None, ratios: DegradationRatios
) -> np.ndarray:
    """Keep bits (N,): False at the top-k positions of each type subset,
    ranked by importance (N finite scores), True elsewhere.

    A type replaced wholly or not at all needs no ranking, so scores may be
    None unless a type is replaced in part (see needs_ranking). scores,
    when given, must be one finite value a token."""
    n = len(tokens)
    if scores is not None and (scores.shape != (n,) or not all_finite(scores)):
        raise InvalidInputError(f"importance must be {n} finite values, one per token")
    return _row_bits(tokens, scores, mask_extent(tokens, ratios))


def _row_bits(
    tokens: TokenSequence, scores: np.ndarray | None, extent: Sequence[int]
) -> np.ndarray:
    """build_mask at extent [k_content, k_ctxagg], for scores already checked."""
    keep = np.ones(len(tokens), dtype=bool)
    for ttype, k in zip((TokenType.CONTENT, TokenType.CTX_AGG), extent):
        if k:
            positions = tokens.positions_of(ttype)
            if k < len(positions):  # part of the type: its top k by score
                if scores is None:
                    raise InvalidInputError(f"a partial {ttype.value} mask needs scores")
                positions = _ranked_positions(positions, scores)[:k]
            keep[positions] = False
    return keep


def _masks(
    tokens: Sequence[TokenSequence],
    scores: np.ndarray | None,
    keys: Sequence[int],
    extents: np.ndarray,
) -> np.ndarray:
    """Keep bits (B, N) of B rows: tokens[b] at extents[b] (a (B, 2) array),
    ranked by the checked scores[keys[b]] of a (K, N) array, None when every
    key is -1.

    A lone row takes build_mask's rule, where ranking one type's positions
    costs less than the stacked form. The stacked form ranks every row at
    once: one stable sort by the tie rule of `ranking`, and a stable order
    restricted to one type keeps it, so a row's replaced positions of a type
    are its first k of that type in rank order, found by per-type
    cumulative counts against (B, 1) extent columns. A row with key -1
    ranks by zeros: it replaces each type wholly or not at all, so its bits
    follow from no order. Both forms give the same bits.
    """
    if len(keys) == 1:
        k = keys[0]
        return _row_bits(tokens[0], None if k < 0 else scores[k], extents[0].tolist())[None]
    n = len(tokens[0])
    table = np.zeros((1 if scores is None else len(scores) + 1, n))  # key -1: the zero row
    if scores is not None:
        table[:-1] = scores
    order = ranking(table[keys])  # (B, N)
    # the content bits in rank order, and the content positions ranked at or above
    content = np.take_along_axis(np.array([t.content_bits for t in tokens]), order, axis=1)
    seen = content.cumsum(axis=1)
    sizes = np.stack([seen[:, -1], n - seen[:, -1]], axis=1)  # each row's count of each type
    partial = ((0 < extents) & (extents < sizes))[np.asarray(keys) < 0].any(axis=0)
    if partial.any():
        raise InvalidInputError(
            f"a partial {('content', 'ctx_agg')[partial.argmax()]} mask needs scores"
        )
    replaced = np.where(
        content, seen <= extents[:, :1], np.arange(1, n + 1) - seen <= extents[:, 1:]
    )
    keep = np.empty(order.shape, dtype=bool)
    np.put_along_axis(keep, order, ~replaced, axis=1)
    return keep


def apply_mask(c: np.ndarray, null: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Row-wise interpolation: keep rows where the bit is True, else take null's row.

    The stack c (B, N, d_model) takes keep bits (B, N), a row per
    condition, all against the one null (N, d_model), and degrades to a new stack.
    """
    if c.shape[-2:] != null.shape:
        raise InvalidInputError("condition and null shapes differ")
    if keep.shape != c.shape[:-1]:
        raise InvalidInputError("mask length does not match condition rows")
    return np.where(keep[..., None], c, null)
