"""Guidance-signal geometry: denoising subspace, decoupling, interference.

The principal denoising subspace at a noise level is the top right-singular
subspace of conditional noise predictions stacked across prompts. Decoupling
is the mean squared sine of the principal angles between the guidance-delta
span and that subspace (1 = orthogonal); interference is the fraction of
delta energy falling inside it (0 = clean).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .degradation import map_ratio, mask_extent
from .diffusion import (
    DEFAULT_ATTENTION_BIAS_WEIGHT,
    GmmConditionalModel,
    SigmaSchedule,
    check_widths,
    degrade_rows,
    degrade_set,
    denoise,
)
from .encoder import TokenSequence, ToyTextEncoder, _is_int
from .errors import InvalidInputError, RankDeficientError, UndefinedMetricError
from .guidance import denoiser_to_eps
from .importance import FusionConfig
from .linalg import SvdResult, principal_angle_sines_squared, project_onto, thin_svd

_ZERO_DELTA_TOL = 1e-300
_SUBSPACE_ENERGY = 0.9
# the most attention weights one degrade call of the sweep holds: 8 MiB, or
# 1024 rows of 4 heads over 16 tokens
_DEGRADE_BLOCK_BYTES = 1 << 23
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix on 32-bit words, its constant run starting at init."""
    consts = itertools.pairwise(itertools.accumulate(
        itertools.repeat(mult), lambda c, m: c * m & _MASK32, initial=init))

    def hashmix(v):
        xor, times = next(consts)
        v = (v ^ xor) * times & _MASK32
        return v ^ v >> 16
    return hashmix


def _seeded_normals(seed: int, n_sigmas: int, n_prompts: int, d_x: int) -> np.ndarray:
    """Row si * n_prompts + p is np.random.default_rng([seed, si, p]).normal(size=d_x).

    SeedSequence's pool hash of every row's entropy (each of seed, si and p
    as little-endian 32-bit words) runs at once, in 32-bit words held in
    uint64; each row's PCG64 seeded state is then set on one generator to draw.
    """
    seed = operator.index(seed)  # a numpy integer as a Python int; a float raises TypeError
    if seed < 0:
        raise InvalidInputError("seed must be >= 0")
    si, p = np.divmod(np.arange(n_sigmas * n_prompts, dtype=np.uint64), np.uint64(n_prompts))
    words = [seed >> s & _MASK32 for s in range(0, seed.bit_length() or 1, 32)]
    words += [si, p] + [0] * (2 - len(words))  # the pool takes four words, zero-padded
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:4]]

    def mix_into(dst, v):
        r = (_MIX_L * pool[dst] - _MIX_R * hashmix(v)) & _MASK32
        pool[dst] = r ^ r >> 16
    for src, dst in itertools.permutations(range(4), 2):
        mix_into(dst, pool[src])
    for w, dst in itertools.product(words[4:], range(4)):
        mix_into(dst, w)
    # generate_state(4, uint64): eight 32-bit words, paired low word first
    halves = list(map(_hasher(_INIT_B, _MULT_B), pool * 2))
    state_words = np.stack([halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)], axis=1)
    bitgen = np.random.PCG64(0)
    gen, out = np.random.Generator(bitgen), np.empty((len(si), d_x))
    for r, (s_hi, s_lo, q_hi, q_lo) in enumerate(state_words.tolist()):
        # pcg64_set_seed: inc from the second word pair, then two LCG steps
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        out[r] = gen.normal(size=d_x)
    return out


def _pooled_metrics(spans, bases) -> list[tuple[float, float]]:
    """(decoupling, interference) of each delta span against its subspace basis.

    spans[i] holds one delta per row (v, d_x); bases[i] has orthonormal
    columns (d_x, k). Spans of equal v take their column-space bases from
    one stacked SVD; those among them of equal numerical rank and k share
    one stacked principal-angle call and one stacked projection. Each
    member's values equal those of its own one-member call. A zero span
    raises UndefinedMetricError.
    """
    out = [None] * len(spans)
    groups: dict[tuple, list[int]] = {}
    for i, rows in enumerate(spans):
        groups.setdefault(np.shape(rows), []).append(i)
    for members in groups.values():
        rows = np.stack([spans[i] for i in members])
        totals = (rows * rows).reshape(len(members), -1).sum(axis=1)
        if (totals <= _ZERO_DELTA_TOL).any():
            raise UndefinedMetricError("guidance delta is zero")
        svd = thin_svd(np.swapaxes(rows, -1, -2))
        subgroups: dict[tuple, list[int]] = {}
        for j, r in enumerate(np.maximum(svd.rank, 1).tolist()):
            subgroups.setdefault((r, np.shape(bases[members[j]])), []).append(j)
        for (r, _), sub in subgroups.items():
            s_c = np.stack([bases[members[j]] for j in sub])
            # sliced after the gather, so each basis has the strides of u[:, :r]
            sines = principal_angle_sines_squared(svd.u[sub][..., :r], s_c)
            proj = project_onto(s_c, np.swapaxes(rows[sub], -1, -2))
            intfs = np.minimum((proj * proj).reshape(len(sub), -1).sum(axis=1) / totals[sub], 1.0)
            for j, dec, intf in zip(sub, np.mean(sines, axis=-1).tolist(), intfs.tolist()):
                out[members[j]] = (dec, intf)
    return out


def decoupling(delta: np.ndarray, s_c: np.ndarray) -> float:
    """Mean sin^2 of the principal angles between span(delta) and span(s_c).

    delta is one vector (d_x,) or a matrix of delta columns (d_x, v).
    """
    return _pooled_metrics([np.atleast_2d(np.asarray(delta, dtype=np.float64).T)], [s_c])[0][0]


def interference(delta: np.ndarray, s_c: np.ndarray) -> float:
    """Fraction of delta's energy projected into span(s_c); delta as in decoupling."""
    return _pooled_metrics([np.atleast_2d(np.asarray(delta, dtype=np.float64).T)], [s_c])[0][1]


def energy_rank(singular_values: np.ndarray) -> int | np.ndarray:
    """Smallest k whose leading singular values capture _SUBSPACE_ENERGY of their squares.

    For a stack (..., n) of singular-value rows, each row's k as an array.
    """
    sq = np.asarray(singular_values, dtype=np.float64) ** 2
    total = sq.sum(axis=-1, keepdims=True)
    if (total == 0).any():
        raise RankDeficientError("all singular values are zero")
    # the cumulative shares do not decrease, so this counts what searchsorted would find
    ranks = np.count_nonzero(np.cumsum(sq, axis=-1) / total < _SUBSPACE_ENERGY, axis=-1) + 1
    return ranks if np.ndim(ranks) else int(ranks)


@dataclass
class GeometryReport:
    """Per-(sigma, method) metric records plus per-prompt detail."""

    records: list[dict] = field(default_factory=list)
    detail: list[dict] = field(default_factory=list)


_METHODS = ("cfg", "cdg")


def _report(
    sigmas: tuple[float, ...], svd: SvdResult, deltas: np.ndarray, k: int | None
) -> GeometryReport:
    """Per-(sigma, method) records and per-prompt detail of every sigma at once.

    svd decomposes each sigma's conditional predictions (S, P, d_x), and
    deltas (S, len(_METHODS) * P, d_x) holds each sigma's per-prompt deltas,
    method by method. The sigmas of one subspace dimension k share one
    stacked projection. A single vector's decoupling is exactly
    1 - interference, so only the pooled pairs take a decomposition, in one
    _pooled_metrics call. Each value is that of a one-sigma computation.
    """
    n_sigmas, n_rows, _ = deltas.shape
    n_prompts = n_rows // len(_METHODS)
    ranks = svd.rank
    ks = np.minimum(np.minimum(energy_rank(svd.s), n_prompts - 1) if k is None else k, ranks)
    if (ks < 1).any():
        first = np.argmax(ks < 1)
        raise RankDeficientError(f"k={ks[first]} exceeds numerical rank {ranks[first]}")
    totals = (deltas * deltas).sum(axis=2)
    energies, bases = np.empty_like(totals), {}
    for k_at in sorted(set(ks.tolist())):  # np.unique's first call adds ~1.7 MB of peak RSS
        at = np.flatnonzero(ks == k_at)
        # each member contiguous, as vt[:k].T.copy() is: the projection's bits follow the strides
        basis = np.ascontiguousarray(np.swapaxes(svd.vt[at, :k_at], 1, 2))
        proj = project_onto(basis[:, None], deltas[at, :, :, None])[..., 0]
        energies[at] = (proj * proj).sum(axis=2)
        bases.update(zip(at.tolist(), basis))
    valid = ~(totals <= _ZERO_DELTA_TOL)
    intfs = np.minimum(np.divide(energies, totals, out=np.zeros_like(totals), where=valid), 1.0)
    # one row per record: (sigma, method) pairs, sigma-major
    shape = (n_sigmas * len(_METHODS), n_prompts)
    valid, intfs, rows = valid.reshape(shape), intfs.reshape(shape), deltas.reshape(*shape, -1)
    counts = np.count_nonzero(valid, axis=1)
    sums = np.add.reduce(intfs, axis=1)
    # a row with a zero delta sums its valid values alone: pairwise
    # summation groups eight or more values unlike fewer
    for r in np.flatnonzero(counts < n_prompts).tolist():
        sums[r] = np.add.reduce(intfs[r][valid[r]])
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    # each record's pooled span: its valid deltas, one per row
    with_valid = np.flatnonzero(counts).tolist()
    pooled = dict(zip(with_valid, _pooled_metrics(
        [rows[r][valid[r]] for r in with_valid], [bases[r // len(_METHODS)] for r in with_valid]
    )))
    sigma_at = [s for s in sigmas for _ in range(n_rows)]
    intf_at = np.where(valid, intfs, None).ravel().tolist()
    return GeometryReport(
        records=[
            {"sigma": s, "method": m,
             "decoupling_mean": 1.0 - v if c else None, "interference_mean": v if c else None,
             "num_valid_prompts": c, "decoupling_pooled": dec, "interference_pooled": intf}
            for s, m, v, c, (dec, intf) in zip(
                sigma_at[::n_prompts], _METHODS * n_sigmas, means.tolist(), counts.tolist(),
                [pooled.get(r, (None, None)) for r in range(len(rows))],
            )
        ],
        detail=[
            {"sigma": s, "method": m, "prompt_index": p,
             "decoupling": None if v is None else 1.0 - v,
             "interference": v, "note": "zero delta" if v is None else ""}
            for s, m, p, v in zip(
                sigma_at, [m for m in _METHODS for _ in range(n_prompts)] * n_sigmas,
                list(range(n_prompts)) * len(rows), intf_at,
            )
        ],
    )


def run_geometry_sweep(
    model: GmmConditionalModel,
    schedule: SigmaSchedule,
    encoder: ToyTextEncoder,
    prompts_tokens: list[TokenSequence],
    r_deg: float,
    lambda_block: int = 1,
    k: int | None = None,
    seed: int = 0,
    fusion: FusionConfig = FusionConfig(),
    attention_bias_weight: float = DEFAULT_ATTENTION_BIAS_WEIGHT,
) -> GeometryReport:
    """Decoupling/interference of CFG vs CDG deltas across the sigma schedule.

    The deltas are unscaled: the conditional prediction minus the null one
    (CFG), or minus that of the prompt degraded at r_deg, ranked at
    lambda_block (CDG). At each sigma one latent is drawn per prompt, the
    draw of np.random.default_rng([seed, sigma index, prompt index]).normal
    (tests/test_geometry.py holds _seeded_normals equal to it row for row),
    the denoising subspace is estimated from the stacked conditional noise
    predictions, and per-prompt metrics are averaged. Zero deltas are
    skipped and reported through num_valid_prompts. The subspace dimension defaults to the
    smallest k capturing 90% of squared singular-value mass, capped at
    num_prompts - 1.

    The sweep is one pass over every (sigma, prompt) row, sigma-major: one
    encoder walk that also builds the prompt states, one seeding pass for the
    latents, one degrade step, one denoise call over the conditional, null and
    degraded rows with a column of per-row sigmas, and one stacked SVD of the
    conditional predictions. The report is then array passes over every sigma
    (see _report): the subspace dimensions as an (S,) array, one stacked
    projection of the per-prompt deltas per distinct k, and the means from
    (S, 2P) arrays. The pooled CFG and CDG spans of every sigma take one SVD
    per valid prompt count and one per (count, rank, k) for their principal
    angles. An encoder not built for model's widths, a k or seed that is
    not an int (a numpy integer, not a bool or float) or a negative seed
    raises InvalidInputError, and a k below 1 RankDeficientError, before
    any work. The degrade step ranks its rows in
    one stationary solve and holds their attention weights, H * N^2 floats a
    row, at once: 1.8 MB for all 224 rows at 28 sigmas, 8 prompts, 4 heads and
    16 tokens. Longer schedules or more prompts take the rows in blocks of at
    most _DEGRADE_BLOCK_BYTES of weights, one degrade call each. Each row's
    arithmetic is that of a per-sigma computation, so the report does not
    depend on the stacking or the blocks.
    """
    check_widths(model, encoder)
    n_prompts = len(prompts_tokens)
    if n_prompts < 2:
        raise InvalidInputError("need at least 2 prompts")
    if k is not None:
        if not _is_int(k):
            raise InvalidInputError(f"k must be an int or None, got {k!r}")
        if k < 1:
            raise RankDeficientError(f"k must be >= 1, got {k}")
    if not _is_int(seed):
        raise InvalidInputError(f"seed must be an int, got {seed!r}")
    if seed < 0:
        raise InvalidInputError("seed must be >= 0")
    ratios = map_ratio(r_deg)
    ranked_at = lambda_block if ratios.ranks else None
    conditions, states = encoder.encode_stack(prompts_tokens, [ranked_at] * n_prompts)
    e_c = encoder.pool(conditions)
    e_null = encoder.pool(encoder.null_condition())
    rows = degrade_set(states, [
        (f"prompt {p}", t, c, mask_extent(t, ratios), ranked_at, p)
        for p, (t, c) in enumerate(zip(prompts_tokens, conditions))
    ])

    sigmas = schedule.sigmas[:-1]
    n_sigmas = len(sigmas)
    sigma_col = np.repeat(sigmas, n_prompts)[:, None]
    x = _seeded_normals(seed, n_sigmas, n_prompts, model.d_x) * sigma_col
    # the degrade step holds its rows' attention weights, H * N^2 floats a
    # row, so it takes the rows in blocks whose weights fit the budget
    row_bytes = encoder.params.n_heads * max(map(len, prompts_tokens)) ** 2 * 8
    block = max(1, _DEGRADE_BLOCK_BYTES // row_bytes)
    # every (sigma, prompt) row is ranked at its own latent
    e_deg = np.concatenate([
        degrade_rows(
            encoder, rows.subset([r % n_prompts for r in range(i, min(i + block, len(x)))]),
            x[i : i + block], sigma_col[i : i + block], fusion, attention_bias_weight,
        )[2]
        for i in range(0, len(x), block)
    ])
    # one denoise of the conditional, null and degraded rows, an embedding a
    # row, so a negative equal to a prompt's embedding gives delta 0
    x3, sigma3 = np.tile(x, (3, 1)), np.tile(sigma_col, (3, 1))
    e = np.concatenate([np.tile(e_c, (n_sigmas, 1)), np.tile(e_null, (len(x), 1)), e_deg])
    d = denoise(model, x3, sigma3, e)
    eps_c, eps_null, eps_deg = denoiser_to_eps(d, x3, sigma3).reshape(3, len(x), model.d_x)
    stack_shape = (n_sigmas, n_prompts, model.d_x)
    svd = thin_svd(eps_c.reshape(stack_shape))
    # (S, len(_METHODS) * P, d_x): each sigma's CFG deltas, then its CDG ones
    deltas = np.concatenate(
        [(eps_c - eps_neg).reshape(stack_shape) for eps_neg in (eps_null, eps_deg)],
        axis=1,
    )

    return _report(sigmas, svd, deltas, k)
