"""Dense linear algebra kernels: thin SVD, orthonormal bases, projections, principal angles.

Matrices are plain float64 numpy arrays. `thin_svd` is numpy's LAPACK SVD
behind input checks and typed errors: a malformed or non-finite matrix raises
InvalidInputError, and a decomposition that fails to converge raises
NumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError

# Singular values below RANK_RTOL * s_max count as numerically zero.
RANK_RTOL = 1e-12


@dataclass
class SvdResult:
    u: np.ndarray  # left singular vectors, orthonormal columns
    s: np.ndarray  # singular values, descending
    vt: np.ndarray  # right singular vectors, orthonormal rows

    @property
    def rank(self) -> int:
        if self.s.size == 0 or self.s[0] == 0.0:
            return 0
        return int(np.count_nonzero(self.s > RANK_RTOL * self.s[0]))


def _check_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or min(m.shape) < 1:
        raise InvalidInputError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError("matrix contains non-finite entries")
    return m


def thin_svd(m: np.ndarray) -> SvdResult:
    """Thin SVD of m: m == u @ diag(s) @ vt with s descending."""
    try:
        u, s, vt = np.linalg.svd(_check_matrix(m), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK SVD failed: {exc}") from exc
    return SvdResult(u=u, s=s, vt=vt)


def orthonormal_basis(m: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis (cols(m) x k) of the top-k right-singular subspace of m."""
    m = _check_matrix(m)
    if k < 1 or k > min(m.shape):
        raise InvalidInputError(f"k={k} out of range for shape {m.shape}")
    return thin_svd(m).vt[:k].T.copy()


def _check_orthonormal_columns(u: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    u = _check_matrix(u)
    gram = u.T @ u
    if np.abs(gram - np.eye(u.shape[1])).max() > tol:
        raise InvalidInputError("columns are not orthonormal")
    return u


def principal_angle_sines_squared(u1: np.ndarray, u2: np.ndarray) -> list[float]:
    """sin^2 of the principal angles between span(u1) and span(u2).

    Both inputs must have orthonormal columns and equal row counts. Returns
    min(cols(u1), cols(u2)) values, smallest angle first.
    """
    u1 = _check_orthonormal_columns(u1)
    u2 = _check_orthonormal_columns(u2)
    if u1.shape[0] != u2.shape[0]:
        raise InvalidInputError("row counts differ")
    if u1.shape[1] > u2.shape[1]:
        u1, u2 = u2, u1
    cos = thin_svd(u1.T @ u2).s
    cos = np.clip(cos, 0.0, 1.0)
    return [float(1.0 - c * c) for c in cos]


def project_onto(basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection of v (vector or matrix of columns) onto span(basis)."""
    basis = _check_matrix(basis)
    v = np.asarray(v, dtype=np.float64)
    if v.shape[0] != basis.shape[0]:
        raise InvalidInputError(
            f"dimension mismatch: basis rows {basis.shape[0]} vs v rows {v.shape[0]}"
        )
    return basis @ (basis.T @ v)
