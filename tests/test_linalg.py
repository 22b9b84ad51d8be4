"""Thin SVD, orthonormal bases, projections, and principal angles."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdglab.cli import main
from cdglab.errors import InvalidInputError, NumericalError
from cdglab.linalg import (
    orthonormal_basis,
    principal_angle_sines_squared,
    project_onto,
    thin_svd,
)


def _random_matrix(seed: int, rows: int, cols: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(rows, cols))


def _contract_matrix(seed: int, shape: tuple[int, int], kind: str) -> np.ndarray:
    """Dense Gaussian, rank min(shape) - 1 (a product of thin factors), or zero."""
    if kind == "zero":
        return np.zeros(shape)
    if kind == "low_rank":
        inner = min(shape) - 1
        return _random_matrix(seed, shape[0], inner) @ _random_matrix(seed + 1, inner, shape[1])
    return _random_matrix(seed, *shape)


matrix_shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))


class TestThinSvd:
    def test_identity(self):
        out = thin_svd(np.eye(3))
        np.testing.assert_allclose(out.s, [1.0, 1.0, 1.0], atol=1e-14)

    def test_diagonal(self):
        out = thin_svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(out.s, [3.0, 2.0, 1.0], atol=1e-14)

    def test_random_reconstruction(self):
        m = _random_matrix(0, 5, 3)
        out = thin_svd(m)
        err = np.linalg.norm(m - out.u @ np.diag(out.s) @ out.vt)
        assert err < 1e-10 * np.linalg.norm(m)

    def test_rank(self):
        m = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        assert thin_svd(m).rank == 1
        assert thin_svd(np.zeros((3, 3))).rank == 0

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            thin_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_wide_matrix(self):
        m = _random_matrix(1, 3, 7)
        out = thin_svd(m)
        np.testing.assert_allclose(out.u @ np.diag(out.s) @ out.vt, m, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        shape=matrix_shapes,
        kind=st.sampled_from(["dense", "low_rank", "zero"]),
        scale=st.sampled_from([1.0, 1e-300, 1e300]),
    )
    def test_svd_contract(self, seed, shape, kind, scale):
        m = _contract_matrix(seed, shape, kind)
        out = thin_svd(m * scale)
        # reconstruct in unscaled units: norms of 1e300-scaled matrices overflow
        norm = np.linalg.norm(m)
        assert np.linalg.norm(m - out.u @ np.diag(out.s / scale) @ out.vt) <= 1e-10 * max(norm, 1.0)
        assert (np.diff(out.s) <= 1e-14).all()
        k = out.u.shape[1]
        assert np.abs(out.u.T @ out.u - np.eye(k)).max() < 1e-10
        assert np.abs(out.vt @ out.vt.T - np.eye(out.vt.shape[0])).max() < 1e-10
        # singular values scale with the input
        s = thin_svd(m).s
        assert np.abs(out.s - scale * s).max() <= 1e-12 * scale * s[0]
        if kind == "low_rank":
            assert out.rank == min(shape) - 1
        if kind == "zero":
            assert out.rank == 0 and not out.s.any()

    def test_lapack_failure_is_numerical_error(self, monkeypatch, tmp_path, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalError, match="SVD did not converge"):
            thin_svd(np.eye(3))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": {"n_components": 4, "d_x": 8, "d_c": 8},
            "schedule": {"steps": 4},
            "prompts": ["a man is cooking", "a cat sits on the mat"],
        }))
        code = main(["diagnose", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "SVD did not converge" in err and "Traceback" not in err


class TestOrthonormalBasis:
    def test_repeated_row(self):
        m = np.tile(np.array([1.0, 0.0, 0.0]), (4, 1))
        basis = orthonormal_basis(m, 1)
        assert abs(abs(basis[0, 0]) - 1.0) < 1e-12
        assert np.abs(basis[1:, 0]).max() < 1e-12

    def test_rank_two_projector_matches_gram_schmidt(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(2, 4))
        m = rng.normal(size=(6, 2)) @ rows  # rank-2 rows in R^4
        basis = orthonormal_basis(m, 2)
        # Gram-Schmidt oracle on the generating rows
        q1 = rows[0] / np.linalg.norm(rows[0])
        v2 = rows[1] - (q1 @ rows[1]) * q1
        q2 = v2 / np.linalg.norm(v2)
        oracle = np.column_stack([q1, q2])
        np.testing.assert_allclose(
            basis @ basis.T, oracle @ oracle.T, atol=1e-10
        )

    def test_identity_full(self):
        basis = orthonormal_basis(np.eye(3), 3)
        np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-12)

    def test_k_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            orthonormal_basis(np.eye(3), 0)

    def test_k_too_large_rejected(self):
        with pytest.raises(InvalidInputError):
            orthonormal_basis(np.eye(3), 4)


class TestPrincipalAngles:
    def test_identical_subspaces(self):
        u = orthonormal_basis(_random_matrix(5, 6, 3), 2)
        sines = principal_angle_sines_squared(u, u)
        assert max(sines) < 1e-12

    def test_orthogonal_lines(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        np.testing.assert_allclose(principal_angle_sines_squared(e1, e2), [1.0])

    def test_forty_five_degrees(self):
        e1 = np.array([[1.0], [0.0]])
        diag = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        np.testing.assert_allclose(
            principal_angle_sines_squared(e1, diag), [0.5], atol=1e-14
        )

    def test_non_orthonormal_rejected(self):
        with pytest.raises(InvalidInputError):
            principal_angle_sines_squared(np.array([[2.0], [0.0]]), np.eye(2))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            principal_angle_sines_squared(np.eye(2), np.eye(3))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        u1 = orthonormal_basis(rng.normal(size=(6, 5)), 2)
        u2 = orthonormal_basis(rng.normal(size=(6, 5)), 2)
        a = sorted(principal_angle_sines_squared(u1, u2))
        b = sorted(principal_angle_sines_squared(u2, u1))
        np.testing.assert_allclose(a, b, atol=1e-10)


class TestStacks:
    def test_stacked_svd_matches_per_matrix(self):
        m = np.random.default_rng(3).normal(size=(5, 6, 4))
        m[2] = _contract_matrix(4, (6, 4), "low_rank")
        stacked = thin_svd(m)
        for i, member in enumerate(m):
            single = thin_svd(member)
            np.testing.assert_array_equal(stacked[i].u, single.u)
            np.testing.assert_array_equal(stacked[i].s, single.s)
            np.testing.assert_array_equal(stacked[i].vt, single.vt)
            assert stacked[i].rank == single.rank
        assert stacked[2].rank == 3

    def test_stacked_projection_matches_per_item(self):
        rng = np.random.default_rng(4)
        basis = orthonormal_basis(rng.normal(size=(8, 8)), 3)
        v = rng.normal(size=(6, 8, 1))
        out = project_onto(basis, v)
        assert out.shape == v.shape
        for i in range(len(v)):
            np.testing.assert_array_equal(out[i], project_onto(basis, v[i]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stack_member_rejected(self, bad):
        m = np.random.default_rng(5).normal(size=(3, 4, 4))
        m[1, 2, 3] = bad
        with pytest.raises(InvalidInputError):
            thin_svd(m)

    def test_stack_shapes_checked(self):
        with pytest.raises(InvalidInputError):
            thin_svd(np.ones((3, 0, 4)))
        with pytest.raises(InvalidInputError):
            project_onto(np.eye(3), np.ones((2, 4, 1)))


class TestProjectOnto:
    def test_inside_span(self):
        basis = np.eye(4)[:, :2]
        v = np.array([1.0, -2.0, 0.0, 0.0])
        np.testing.assert_allclose(project_onto(basis, v), v, atol=1e-14)

    def test_orthogonal_to_span(self):
        basis = np.eye(4)[:, :2]
        v = np.array([0.0, 0.0, 3.0, 4.0])
        np.testing.assert_allclose(project_onto(basis, v), 0.0, atol=1e-14)

    def test_coordinate_truncation(self):
        basis = np.eye(4)[:, :2]
        v = _random_matrix(7, 4, 1)[:, 0]
        out = project_onto(basis, v)
        np.testing.assert_allclose(out[:2], v[:2], atol=1e-14)
        np.testing.assert_allclose(out[2:], 0.0, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            project_onto(np.eye(3), np.ones(4))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_idempotence_and_pythagoras(self, seed):
        rng = np.random.default_rng(seed)
        basis = orthonormal_basis(rng.normal(size=(6, 6)), 3)
        v = rng.normal(size=6)
        p = project_onto(basis, v)
        np.testing.assert_allclose(project_onto(basis, p), p, atol=1e-12)
        lhs = v @ v
        rhs = p @ p + (v - p) @ (v - p)
        assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1.0)
