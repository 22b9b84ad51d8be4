"""Dense linear algebra kernels: thin SVD, orthonormal bases, projections, principal angles.

Matrices are plain float64 numpy arrays. `thin_svd` is numpy's LAPACK SVD
behind input checks and typed errors: a malformed or non-finite matrix raises
InvalidInputError, and a decomposition that fails to converge raises
NumericalError. `thin_svd` and `project_onto` also take a stack (..., m, n)
of matrices, and each member's result equals that of its own call.
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

    def __getitem__(self, i) -> "SvdResult":
        """The decomposition of member i of a stacked input."""
        return SvdResult(u=self.u[i], s=self.s[i], vt=self.vt[i])

    @property
    def rank(self) -> int:
        """Numerical rank of a single (unstacked) decomposition."""
        if self.s.size == 0 or self.s[0] == 0.0:
            return 0
        return int(np.count_nonzero(self.s > RANK_RTOL * self.s[0]))


def all_finite(a: np.ndarray) -> bool:
    """True when every entry of a is finite.

    Counts in C; ndarray.all's Python wrapper costs more than the test
    itself on the small arrays of a one-chain step.
    """
    return np.count_nonzero(np.isfinite(a)) == a.size


def _check_matrix(m: np.ndarray, stacked: bool = False) -> np.ndarray:
    """m as float64, checked: 2-d, or with stacked ndim >= 2, and finite."""
    m = np.asarray(m, dtype=np.float64)
    if (m.ndim < 2 if stacked else m.ndim != 2) or min(m.shape) < 1:
        kind = "a matrix or a stack of matrices" if stacked else "a 2-d matrix"
        raise InvalidInputError(f"expected {kind}, got shape {m.shape}")
    if not all_finite(m):
        raise InvalidInputError("matrix contains non-finite entries")
    return m


def thin_svd(m: np.ndarray) -> SvdResult:
    """Thin SVD of m: m == u @ diag(s) @ vt with s descending.

    m is one matrix or a stack (..., rows, cols); a stack decomposes member
    by member, and `result[i]` is member i's decomposition.
    """
    try:
        u, s, vt = np.linalg.svd(_check_matrix(m, stacked=True), full_matrices=False)
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
    """Orthogonal projection of v onto span(basis).

    v is a vector, a matrix of columns, or a stack (..., rows, cols) of
    such matrices, each projected as by its own call.
    """
    basis = _check_matrix(basis)
    v = np.asarray(v, dtype=np.float64)
    rows = v.shape[0] if v.ndim == 1 else v.shape[-2]
    if rows != basis.shape[0]:
        raise InvalidInputError(
            f"dimension mismatch: basis rows {basis.shape[0]} vs v rows {rows}"
        )
    return basis @ (basis.T @ v)
