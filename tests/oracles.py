"""Reference implementations the tests check the package against.

None of these has a caller in the package. `wpr_single_head` is the
power iteration whose limit `stationary_scores` solves for, and
`attention_maps` runs the encoder's blocks one by one and keeps each
block's attention, `block_logits` and `block_static` give a block's
logits and a prompt state's static map in the state's own arithmetic,
and `state_weights` takes a `PromptState` to its
attention weights at one latent, the one-key product the sampler's
stacked weights must equal bit for bit. `PredictionStack`,
`estimate_subspace` and `orthonormal_basis` build subspace bases from
stacked rows through plain `thin_svd`. `pooled_decoupling` and
`pooled_interference` are the one-matrix-at-a-time forms of the pooled
geometry metrics, which the stacked path must match bit for bit.
`per_sigma_report` builds a geometry report one sigma at a time, the
reference for `geometry._report`'s passes over every sigma at once.
`replaced` splits a mask's keep bits into its replaced positions and their
count per token type, position by position. `eps_to_denoiser` and
`denoiser_to_score` convert a denoiser output to the
other two parametrizations the guidance identities are stated in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from cdglab.encoder import PromptState, TokenSequence, ToyTextEncoder
from cdglab.errors import InvalidInputError, RankDeficientError
from cdglab.geometry import (
    _METHODS,
    _SUBSPACE_ENERGY,
    _ZERO_DELTA_TOL,
    GeometryReport,
    _pooled_metrics,
)
from cdglab.importance import _row_normalized
from cdglab.linalg import SvdResult, principal_angle_sines_squared, project_onto, thin_svd

DEFAULT_EPSILON = 1e-8
DEFAULT_MAX_ITERS = 1000


def wpr_single_head(
    a: np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[np.ndarray, bool]:
    """Weighted-PageRank power iteration on one attention head.

    Row-normalizes a, starts from the uniform vector, and iterates
    s <- normalize(a^T s) until the L1 change drops below epsilon. Returns
    (scores, converged): if the iteration budget runs out, the last iterate
    with converged False.
    """
    at = np.ascontiguousarray(_row_normalized(a[None])[0].T)
    n = at.shape[0]
    s = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        new = at @ s
        new /= new.sum()
        change = np.abs(new - s).sum()
        s = new
        if change < epsilon:
            return s, True
    return s, False


def forward(
    encoder: ToyTextEncoder, tokens: TokenSequence
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """One sequence's hidden states (N, d_model), entering each block and
    leaving the last, and each block's per-head row-stochastic attention
    maps (H, N, N), block by block from the encoder's weights: each head's
    logits are q @ k^T / sqrt(d_head)."""
    p = encoder.params
    n, h, dh = p.seq_len, p.n_heads, encoder.d_head
    hidden = [encoder.tok_emb[list(tokens.ids)] + encoder.pos_emb]
    maps = []
    for b in range(p.n_blocks):
        x = hidden[-1]
        q, k, v = (
            (x @ w[b]).reshape(n, h, dh).transpose(1, 0, 2)
            for w in (encoder.w_q, encoder.w_k, encoder.w_v)
        )
        logits = q @ k.transpose(0, 2, 1) / np.sqrt(dh)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        maps.append(e / e.sum(axis=-1, keepdims=True))
        hidden.append(x + (maps[-1] @ v).transpose(1, 0, 2).reshape(n, p.d_model) @ encoder.w_o[b])
    return hidden, maps


def block_logits(
    encoder: ToyTextEncoder, x: np.ndarray, block: int
) -> tuple[np.ndarray, np.ndarray]:
    """A block's scaled logits (H, N, N) and scaled K^T (H, d_head, N) at
    the hidden state x entering it: q @ (k^T / sqrt(d_head)), K^T contiguous."""
    p = encoder.params
    n, h, dh = p.seq_len, p.n_heads, encoder.d_head
    q = (x @ encoder.w_q[block]).reshape(n, h, dh).transpose(1, 0, 2)
    kt = np.ascontiguousarray((x @ encoder.w_k[block]).reshape(n, h, dh).transpose(1, 2, 0))
    kt_scaled = kt / np.sqrt(dh)
    return q @ kt_scaled, kt_scaled


def block_static(encoder: ToyTextEncoder, tokens: TokenSequence, block: int) -> np.ndarray:
    """exp of one block's scaled logits (H, N, N), each row less its max: the
    `static` of the (tokens, block) prompt state, whose rows normalized are
    the block's attention."""
    logits, _ = block_logits(encoder, forward(encoder, tokens)[0][block], block)
    return np.exp(logits - logits.max(axis=-1, keepdims=True))


def attention_maps(encoder: ToyTextEncoder, tokens: TokenSequence) -> list[np.ndarray]:
    """Per-block, per-head row-stochastic attention maps (each H x N x N)."""
    return forward(encoder, tokens)[1]


def state_weights(
    state: PromptState, x: np.ndarray, sigma: float, bias_weight: float
) -> np.ndarray:
    """Unnormalized attention weights (H, N, N) of a prompt state at latent
    x (d_x,) and noise sigma.

    Each row is the softmax row times a positive factor; WPR's row
    normalization absorbs it. With bias_weight 0 this is the static map.
    """
    if bias_weight == 0.0:
        return state.static
    z = np.empty(x.size + 1)
    z[:-1] = x
    z[-1] = sigma
    return state.static * np.exp(bias_weight * (state.shift_map @ z))[:, None, :]


class Replaced(NamedTuple):
    indices: tuple[int, ...]  # ascending positions whose keep bit is False
    k_content: int
    k_ctxagg: int


def replaced(tokens: TokenSequence, keep: np.ndarray) -> Replaced:
    """The positions a mask (N,) of keep bits replaces, and how many of
    them are content and context-aggregating tokens."""
    assert keep.shape == (len(tokens),) and keep.dtype == bool
    indices = tuple(p for p in range(len(tokens)) if not keep[p])
    k_content = sum(tokens.content_bits[p] for p in indices)
    return Replaced(indices, int(k_content), len(indices) - int(k_content))


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
    svd = thin_svd(stack.rows)
    if k < 1 or k > svd.rank:
        raise RankDeficientError(f"k={k} exceeds numerical rank {svd.rank}")
    return svd.vt[:k].T.copy()


def orthonormal_basis(m: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis (cols(m) x k) of the top-k right-singular subspace of m."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or k < 1 or k > min(m.shape):
        raise InvalidInputError(f"k={k} out of range for shape {m.shape}")
    return thin_svd(m).vt[:k].T.copy()


def pooled_decoupling(delta: np.ndarray, s_c: np.ndarray) -> float:
    """Mean sin^2 of the principal angles between span(delta) and span(s_c).

    delta (d_x, v) is nonzero; its column-space basis is the left singular
    vectors up to its numerical rank (at least one).
    """
    svd = thin_svd(delta)
    basis = svd.u[:, : max(svd.rank, 1)]
    return float(np.mean(principal_angle_sines_squared(basis, s_c)))


def pooled_interference(delta: np.ndarray, s_c: np.ndarray) -> float:
    """Fraction of delta's energy (d_x, v) projected into span(s_c)."""
    proj = project_onto(s_c, delta)
    return min(float(np.sum(proj * proj)) / float(np.sum(delta * delta)), 1.0)


def _energy_rank(singular_values: np.ndarray) -> int:
    """Smallest k whose leading singular values capture _SUBSPACE_ENERGY of their squares."""
    sq = np.asarray(singular_values, dtype=np.float64) ** 2
    total = sq.sum()
    if total == 0:
        raise RankDeficientError("all singular values are zero")
    cum = np.cumsum(sq) / total
    return int(np.searchsorted(cum, _SUBSPACE_ENERGY) + 1)


def _top_subspace(svd: SvdResult, k: int) -> np.ndarray:
    if k < 1 or k > svd.rank:
        raise RankDeficientError(f"k={k} exceeds numerical rank {svd.rank}")
    return svd.vt[:k].T.copy()


def _sigma_records(
    report: GeometryReport, sigma: float, deltas: np.ndarray, basis: np.ndarray, pooled: list
) -> None:
    """Per-prompt metrics at one sigma, appended to report with its records.

    deltas (len(_METHODS) * num_prompts, d_x) holds each method's per-prompt
    deltas in _METHODS order. Each record with a valid prompt goes to pooled
    with its span and basis.
    """
    n_prompts = len(deltas) // len(_METHODS)
    totals = (deltas * deltas).sum(axis=1)
    proj = project_onto(basis, deltas[:, :, None])[..., 0]
    energies = (proj * proj).sum(axis=1)
    valid_rows = np.flatnonzero(~(totals <= _ZERO_DELTA_TOL))
    intfs = np.minimum(energies[valid_rows] / totals[valid_rows], 1.0)
    cuts = np.searchsorted(valid_rows, np.arange(len(_METHODS) + 1) * n_prompts).tolist()
    for m, method in enumerate(_METHODS):
        lo, hi = cuts[m], cuts[m + 1]
        valid = (valid_rows[lo:hi] - m * n_prompts).tolist()
        mean = float(np.add.reduce(intfs[lo:hi]) / (hi - lo)) if valid else None
        by_prompt = dict(zip(valid, intfs[lo:hi].tolist()))
        for p in range(n_prompts):
            intf = by_prompt.get(p)
            report.detail.append(
                {"sigma": sigma, "method": method, "prompt_index": p,
                 "decoupling": None if intf is None else 1.0 - intf,
                 "interference": intf, "note": "zero delta" if intf is None else ""}
            )
        report.records.append({
            "sigma": sigma,
            "method": method,
            "decoupling_mean": None if mean is None else 1.0 - mean,
            "interference_mean": mean,
            "num_valid_prompts": len(valid),
            "decoupling_pooled": None,
            "interference_pooled": None,
        })
        if valid:
            rows = deltas[m * n_prompts : (m + 1) * n_prompts][valid]
            pooled.append((report.records[-1], rows, basis))


def per_sigma_report(
    sigmas: tuple[float, ...], svd: SvdResult, deltas: np.ndarray, k: int | None
) -> GeometryReport:
    """`geometry._report`'s records and detail, one sigma at a time.

    At each sigma: its own decomposition (`svd.u[si]`, `svd.s[si]`,
    `svd.vt[si]`), its subspace dimension,
    its basis `vt[:k].T.copy()`, one stacked projection of its per-prompt
    deltas, and its records and detail appended in order; a valid
    (sigma, method)'s mean reduces its valid interferences alone. The
    pooled pairs then come from one `_pooled_metrics` call.
    """
    n_prompts = deltas.shape[1] // len(_METHODS)
    report, pooled = GeometryReport(), []
    for si, sigma in enumerate(sigmas):
        svd_at = SvdResult(u=svd.u[si], s=svd.s[si], vt=svd.vt[si])
        k_eff = k if k is not None else min(_energy_rank(svd_at.s), n_prompts - 1)
        basis = _top_subspace(svd_at, min(k_eff, svd_at.rank))
        _sigma_records(report, sigma, deltas[si], basis, pooled)
    metrics = _pooled_metrics([span for _, span, _ in pooled], [b for *_, b in pooled])
    for (record, _, _), (dec, intf) in zip(pooled, metrics):
        record["decoupling_pooled"], record["interference_pooled"] = dec, intf
    return report


def eps_to_denoiser(eps: np.ndarray, x: np.ndarray, sigma: float) -> np.ndarray:
    return x - sigma * eps


def denoiser_to_score(d_value: np.ndarray, x: np.ndarray, sigma: float) -> np.ndarray:
    return (d_value - x) / (sigma * sigma)
