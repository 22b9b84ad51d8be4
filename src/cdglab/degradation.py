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

from .encoder import Condition, TokenSequence, TokenType
from .errors import InvalidInputError, InvalidRatioError
from .importance import ImportanceScores


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


@dataclass
class DegradationMask:
    bits: np.ndarray  # N values in {0, 1}; 0 means replace with the null row
    k_content: int
    k_ctxagg: int
    replaced_indices: tuple[int, ...]  # sorted positions with bit 0


def mask_extent(tokens: TokenSequence, ratios: DegradationRatios) -> tuple[int, int]:
    """(k_content, k_ctxagg): floor(ratio * count) positions of each type."""
    return (
        math.floor(ratios.r_content * len(tokens.positions_of(TokenType.CONTENT))),
        math.floor(ratios.r_ctxagg * len(tokens.positions_of(TokenType.CTX_AGG))),
    )


def build_mask(
    tokens: TokenSequence,
    importance: ImportanceScores,
    ratios: DegradationRatios,
) -> DegradationMask:
    """Zero the top-k positions of each type subset, ranked by importance."""
    n = len(tokens)
    if importance.scores.shape[0] != n:
        raise InvalidInputError("importance length does not match token count")
    k_content, k_ctxagg = mask_extent(tokens, ratios)
    replaced: list[int] = []
    if k_content or k_ctxagg:
        # by descending importance; the sort is stable, so within each type
        # ties still go to the lower position
        order = importance.sorted_indices.tolist()
        types = tokens.types
        for ttype, k in ((TokenType.CONTENT, k_content), (TokenType.CTX_AGG, k_ctxagg)):
            if k:
                replaced += [p for p in order if types[p] is ttype][:k]
    bits = [1] * n
    for p in replaced:
        bits[p] = 0
    return DegradationMask(
        bits=np.array(bits, dtype=np.int64),
        k_content=k_content,
        k_ctxagg=k_ctxagg,
        replaced_indices=tuple(sorted(replaced)),
    )


def content_boundary_mask(tokens: TokenSequence) -> DegradationMask:
    """Mask at the ratio-1.0 boundary: every content position replaced.

    Computable from the type partition alone, no importance scores needed,
    and equal to build_mask at ratio 1.0 for any importance input.
    """
    content = tokens.positions_of(TokenType.CONTENT)
    bits = np.ones(len(tokens), dtype=np.int64)
    bits[content] = 0
    return DegradationMask(
        bits=bits,
        k_content=len(content),
        k_ctxagg=0,
        replaced_indices=tuple(content),
    )


def apply_mask(
    c: Condition,
    null: Condition,
    mask: DegradationMask | Sequence[DegradationMask],
) -> Condition:
    """Row-wise interpolation: keep rows where the bit is 1, else take null's row.

    A condition (N, d_model) takes one mask; a stack (B, N, d_model) takes a
    sequence of B masks, one per condition, all against the one null.
    """
    if isinstance(mask, DegradationMask):
        bits = mask.bits
    else:
        bits = np.array([m.bits for m in mask])
    if c.embeddings.shape[-2:] != null.embeddings.shape:
        raise InvalidInputError("condition and null shapes differ")
    if bits.shape != c.embeddings.shape[:-1]:
        raise InvalidInputError("mask length does not match condition rows")
    keep = bits[..., None].astype(bool)
    return Condition(embeddings=np.where(keep, c.embeddings, null.embeddings))
