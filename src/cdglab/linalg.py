"""Dense linear algebra kernels: thin SVD, projections, principal angles.

Matrices are plain float64 numpy arrays. `thin_svd` is numpy's LAPACK SVD
behind input checks and typed errors: a malformed or non-finite matrix raises
InvalidInputError, and a decomposition that fails to converge raises
NumericalError. `thin_svd`, `principal_angle_sines_squared` and
`project_onto` also take a stack (..., m, n) of matrices, and each member's
result equals that of its own call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError

# Singular values below RANK_RTOL * s_max count as numerically zero.
RANK_RTOL = 1e-12
ORTHONORMAL_TOL = 1e-8


@dataclass
class SvdResult:
    u: np.ndarray  # left singular vectors, orthonormal columns
    s: np.ndarray  # singular values, descending
    vt: np.ndarray  # right singular vectors, orthonormal rows

    @property
    def rank(self) -> int | np.ndarray:
        """Numerical rank; for a stacked decomposition, each member's as an array."""
        ranks = np.count_nonzero(self.s > RANK_RTOL * self.s[..., :1], axis=-1)
        return ranks if np.ndim(ranks) else int(ranks)


def all_finite(a: np.ndarray) -> bool:
    """True when every entry of a is finite.

    Counts in C; ndarray.all's Python wrapper costs more than the test
    itself on the small arrays of a one-chain step.
    """
    return np.count_nonzero(np.isfinite(a)) == a.size


def _check_matrix(m: np.ndarray) -> np.ndarray:
    """m as float64, checked: a matrix or a stack of matrices, and finite."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or min(m.shape) < 1:
        raise InvalidInputError(f"expected a matrix or a stack of matrices, got shape {m.shape}")
    if not all_finite(m):
        raise InvalidInputError("matrix contains non-finite entries")
    return m


def thin_svd(m: np.ndarray) -> SvdResult:
    """Thin SVD of m: m == u @ diag(s) @ vt with s descending.

    m is one matrix or a stack (..., rows, cols); a stack decomposes member
    by member, and member i's decomposition is u[i], s[i] and vt[i].
    """
    try:
        u, s, vt = np.linalg.svd(_check_matrix(m), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK SVD failed: {exc}") from exc
    return SvdResult(u=u, s=s, vt=vt)


def _check_orthonormal_columns(u: np.ndarray) -> np.ndarray:
    u = _check_matrix(u)
    gram = np.swapaxes(u, -1, -2) @ u
    if np.abs(gram - np.eye(u.shape[-1])).max() > ORTHONORMAL_TOL:
        raise InvalidInputError("columns are not orthonormal")
    return u


def principal_angle_sines_squared(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """sin^2 of the principal angles between span(u1) and span(u2).

    Both inputs must have orthonormal columns and equal row counts, and are
    both matrices or both stacks (..., rows, cols) paired member by member.
    Returns (..., min(cols(u1), cols(u2))) values, smallest angle first. The
    SVD is of u1ᵀ u2, or of u2ᵀ u1 when u1 has more columns.
    """
    u1 = _check_orthonormal_columns(u1)
    u2 = _check_orthonormal_columns(u2)
    if u1.shape[:-1] != u2.shape[:-1]:
        raise InvalidInputError("stack lengths or row counts differ")
    if u1.shape[-1] > u2.shape[-1]:
        u1, u2 = u2, u1
    cos = np.clip(thin_svd(np.swapaxes(u1, -1, -2) @ u2).s, 0.0, 1.0)
    return 1.0 - cos * cos


def project_onto(basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection of v onto span(basis).

    v is a vector, a matrix of columns, or a stack (..., rows, cols) of
    such matrices; basis is one matrix, or a stack paired member by member
    with a stacked v. Each member is projected as by its own call.
    """
    basis = _check_matrix(basis)
    v = np.asarray(v, dtype=np.float64)
    rows = v.shape[0] if v.ndim == 1 else v.shape[-2]
    if rows != basis.shape[-2]:
        raise InvalidInputError(
            f"dimension mismatch: basis rows {basis.shape[-2]} vs v rows {rows}"
        )
    return basis @ (np.swapaxes(basis, -1, -2) @ v)
