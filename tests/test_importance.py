"""Weighted-PageRank scoring, head fusion, and the cross-attention baseline."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdglab.diffusion import _compute_importance
from cdglab.errors import (
    AllHeadsFilteredError,
    DegenerateGraphError,
    InvalidInputError,
)
from cdglab.importance import (
    FusionConfig,
    _normalize_rows,
    _stationary_solve,
    cross_attention_baseline,
    fuse_head_stacks,
    ranking,
    stationary_scores,
)

from oracles import stationary_solve_columns, wpr_single_head


def positive_matrix(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.05, 1.0, size=(n, n))


def power_iteration_oracle(a: np.ndarray, iters: int = 10_000) -> np.ndarray:
    at = (a / a.sum(axis=1, keepdims=True)).T
    s = np.full(a.shape[0], 1.0 / a.shape[0])
    for _ in range(iters):
        s = at @ s
        s /= s.sum()
    return s


class TestWprSingleHead:
    def test_uniform_matrix_uniform_scores(self):
        n = 6
        out, converged = wpr_single_head(np.full((n, n), 1.0 / n))
        np.testing.assert_allclose(out, 1.0 / n, atol=1e-12)
        assert converged

    def test_absorbing_column(self):
        # every token attends only to token 2
        a = np.zeros((5, 5))
        a[:, 2] = 1.0
        out, _ = wpr_single_head(a)
        expected = np.zeros(5)
        expected[2] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-12)
        assert ranking(out)[0] == 2

    def test_matches_power_iteration_oracle(self):
        a = positive_matrix(0, 8)
        out, _ = wpr_single_head(a)
        assert np.abs(out - power_iteration_oracle(a)).sum() < 1e-8

    def test_zero_row_rejected(self):
        a = np.ones((4, 4))
        a[1] = 0.0
        with pytest.raises(DegenerateGraphError, match="all-zero row"):
            wpr_single_head(a)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError, match="expected attention of shape"):
            wpr_single_head(np.ones((3, 4)))

    def test_budget_exhaustion_sets_flag(self):
        out, converged = wpr_single_head(positive_matrix(1, 16), max_iters=1)
        assert not converged

    def test_tie_break_by_position(self):
        out, _ = wpr_single_head(np.full((4, 4), 0.25))
        np.testing.assert_array_equal(ranking(out), [0, 1, 2, 3])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 16))
    def test_fixed_point_residual(self, seed, n):
        a = positive_matrix(seed, n)
        eps = 1e-8
        out, _ = wpr_single_head(a, epsilon=eps)
        at = (a / a.sum(axis=1, keepdims=True)).T
        step = at @ out
        step /= step.sum()
        assert np.abs(step - out).sum() < 10 * eps

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), exponent=st.integers(-8, 8))
    def test_power_of_two_scaling_exact(self, seed, exponent):
        a = positive_matrix(seed, 8)
        base, _ = wpr_single_head(a)
        scaled, _ = wpr_single_head(a * 2.0**exponent)
        np.testing.assert_array_equal(base, scaled)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        alpha=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
    )
    def test_general_scaling_invariance(self, seed, alpha):
        a = positive_matrix(seed, 8)
        base, _ = wpr_single_head(a)
        scaled, _ = wpr_single_head(a * alpha)
        np.testing.assert_allclose(base, scaled, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        a = positive_matrix(seed, 8)
        perm = rng.permutation(8)
        permuted = a[np.ix_(perm, perm)]
        base, _ = wpr_single_head(a, epsilon=1e-12)
        out, _ = wpr_single_head(permuted, epsilon=1e-12)
        np.testing.assert_allclose(out, base[perm], atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 64))
    def test_positive_maps_converge(self, seed, n):
        logits = np.random.default_rng(seed).normal(size=(n, n))
        attn = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        out, converged = wpr_single_head(attn, epsilon=1e-9, max_iters=200)
        assert converged
        assert abs(out.sum() - 1.0) < 1e-9


class TestWprAllHeads:
    """stationary_scores solves every head of a stack at once."""

    def test_matches_single_head(self):
        heads = np.stack([positive_matrix(s, 16) for s in range(4)])
        batched = stationary_scores(heads)
        for head, scores in zip(heads, batched):
            single, converged = wpr_single_head(head)
            assert np.abs(scores - single).sum() < 1e-6
            np.testing.assert_array_equal(
                np.argsort(-scores, kind="stable"), ranking(single)
            )
            assert converged

    def test_zero_row_rejected(self):
        heads = np.ones((2, 4, 4))
        heads[1, 2] = 0.0
        with pytest.raises(DegenerateGraphError, match="all-zero row"):
            stationary_scores(heads)

    def test_attention_map_validation(self):
        with pytest.raises(InvalidInputError, match="expected attention of shape"):
            stationary_scores(np.ones((2, 3, 4)))
        with pytest.raises(InvalidInputError, match="must be >= 0"):
            stationary_scores(-np.ones((2, 3, 3)))
        for shape in [(4, 4), (0, 3, 3), (2, 0, 0)]:
            with pytest.raises(InvalidInputError, match="expected attention of shape"):
                stationary_scores(np.ones(shape))


class TestStationaryScores:
    def test_matches_power_iteration(self):
        stack = np.stack([positive_matrix(s, 6) for s in range(3)])
        out = stationary_scores(stack)
        for head, scores in zip(stack, out):
            np.testing.assert_allclose(scores, power_iteration_oracle(head), atol=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_solution_rejected(self, bad):
        # an overflowing attention weight would make NaN rows that a linear
        # solve accepts without reporting a singular system
        stack = np.stack([positive_matrix(s, 5) for s in range(2)])
        stack[1, 2, 3] = bad
        with np.errstate(invalid="ignore"), pytest.raises(
            DegenerateGraphError, match="attention weights are not finite"
        ):
            stationary_scores(stack)

    def test_row_scale_invariant(self):
        # softmax normalization is redundant: any positive per-row scale
        # leaves the fixed point unchanged
        stack = np.stack([positive_matrix(s, 7) for s in range(3)])
        scale = np.random.default_rng(9).uniform(0.1, 10.0, size=(3, 7, 1))
        np.testing.assert_allclose(
            stationary_scores(stack * scale), stationary_scores(stack), atol=1e-14
        )

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.sampled_from([1, 4, 64]),
        n=st.sampled_from([4, 16]),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.booleans(),
    )
    @example(h=4, n=16, seed=0, zeros=True)
    def test_solve_matches_oracle(self, h, n, seed, zeros):
        # the in-place normalization and the flat view of B - I round as the
        # plain solve on a copy does, for the entry and the sampler's kernels
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.05, 1.0, size=(h, n, n))
        if zeros:
            # zero weights in every row, each keeping a positive weight into one
            # shared column: one closed class a head, so a unique fixed point
            weights[rng.random((h, n, n)) < 0.5] = 0.0
            weights[:, :, rng.integers(n)] = rng.uniform(0.05, 1.0, size=(h, n))
        expected = stationary_solve_columns(weights)
        np.testing.assert_array_equal(stationary_scores(weights), expected)
        np.testing.assert_array_equal(_stationary_solve(_normalize_rows(weights.copy())), expected)
        np.testing.assert_array_equal(
            _compute_importance(_normalize_rows(weights[None].copy()))[0], expected
        )

    def test_singular_system_rejected(self):
        # two disconnected components: the stationary vector is not unique
        a = np.zeros((4, 4))
        a[:2, :2] = 1.0
        a[2:, 2:] = 1.0
        with pytest.raises(DegenerateGraphError, match="stationary system is singular"):
            stationary_scores(a[None])


class TestFuseHeads:
    def _scores(self, values) -> np.ndarray:
        raw = np.asarray(values, dtype=np.float64)
        return raw / raw.sum()

    def test_single_head_identity_on_ranking(self):
        head = self._scores([0.1, 0.5, 0.2, 0.2])
        fused = fuse_head_stacks(head[None, None], FusionConfig())[0]
        np.testing.assert_array_equal(
            ranking(fused), np.argsort(-head, kind="stable")
        )
        np.testing.assert_allclose(fused, head, atol=1e-12)

    def test_identical_heads_fuse_to_each(self):
        head = self._scores([0.4, 0.3, 0.2, 0.1])
        fused = fuse_head_stacks(np.stack([head, head, head])[None])[0]
        np.testing.assert_allclose(fused, head, atol=1e-12)

    def test_variance_filter_excludes_uniform_head(self):
        uniform = self._scores([1.0, 1.0, 1.0, 1.0])
        peaked = self._scores([0.7, 0.1, 0.1, 0.1])
        cfg = FusionConfig(v_min=1e-6, v_max=1.0, enabled=True)
        fused = fuse_head_stacks(np.stack([uniform, peaked])[None], cfg)[0]
        np.testing.assert_allclose(fused, peaked, atol=1e-12)

    def test_all_heads_filtered_rejected(self):
        uniform = self._scores([1.0, 1.0, 1.0, 1.0])
        cfg = FusionConfig(v_min=1e-6, v_max=1.0, enabled=True)
        with pytest.raises(AllHeadsFilteredError):
            fuse_head_stacks(uniform[None, None], cfg)[0]

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInputError):
            fuse_head_stacks(np.empty((0, 4))[None])[0]
        with pytest.raises(InvalidInputError):
            fuse_head_stacks(np.ones(4)[None])[0]

    def test_fused_scores_normalized(self):
        heads = np.stack([self._scores([0.5, 0.3, 0.2]), self._scores([0.1, 0.8, 0.1])])
        fused = fuse_head_stacks(heads[None])[0]
        assert abs(fused.sum() - 1.0) < 1e-9

    def test_bad_config_rejected(self):
        with pytest.raises(InvalidInputError):
            FusionConfig(v_min=0.5, v_max=0.1, enabled=True)

    def test_config_is_frozen(self):
        # the default argument is one shared instance
        with pytest.raises(FrozenInstanceError):
            FusionConfig().enabled = True


def _subset_fusion(stack: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """RMS fusion over the kept heads alone, normalized: the per-stack reference."""
    kept = stack[keep]
    raw = np.sqrt((kept**2).sum(axis=0) / len(kept))
    return raw / raw.sum()


class TestFuseHeadStacks:
    H, N = 4, 16
    WINDOW = FusionConfig(v_min=1e-7, v_max=1e-2, enabled=True)

    def _planted(self, seed: int) -> np.ndarray:
        """(H, H, N): stack k has k + 1 near-uniform heads inside WINDOW and
        peaked heads above it, in a shuffled head order."""
        rng = np.random.default_rng(seed)
        stacks = []
        for k in range(self.H):
            heads = []
            for h in range(self.H):
                if h <= k:
                    raw = 1.0 + 0.1 * rng.uniform(size=self.N)
                else:
                    raw = rng.uniform(0.0, 0.01, size=self.N)
                    raw[rng.integers(self.N)] = 1.0
                heads.append(raw / raw.sum())
            stacks.append(np.array(heads)[rng.permutation(self.H)])
        return np.stack(stacks)

    def _keep(self, stacks: np.ndarray) -> np.ndarray:
        v = np.var(stacks, axis=2)
        return (v >= self.WINDOW.v_min) & (v <= self.WINDOW.v_max)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_filtered_rows_match_per_stack_fusion(self, seed):
        stacks = self._planted(seed)
        keep = self._keep(stacks)
        assert keep.sum(axis=1).tolist() == list(range(1, self.H + 1))
        fused = fuse_head_stacks(stacks, self.WINDOW)
        for k in range(self.H):
            np.testing.assert_array_equal(fused[k], _subset_fusion(stacks[k], keep[k]))
            np.testing.assert_array_equal(
                fused[k], fuse_head_stacks(stacks[k][None], self.WINDOW)[0]
            )

    @pytest.mark.parametrize("cfg", [FusionConfig()], ids=["disabled"])
    def test_unfiltered_rows_match_per_stack_fusion(self, cfg):
        stacks = self._planted(3)
        fused = fuse_head_stacks(stacks, cfg)
        every = np.ones(self.H, dtype=bool)
        for k in range(self.H):
            np.testing.assert_array_equal(fused[k], _subset_fusion(stacks[k], every))
            np.testing.assert_array_equal(fused[k], fuse_head_stacks(stacks[k][None], cfg)[0])

    def test_first_filtered_stack_is_named(self):
        stacks = self._planted(4)
        peaked = stacks[0][~self._keep(stacks)[0]][0]
        stacks[1] = stacks[3] = peaked
        with pytest.raises(AllHeadsFilteredError) as info:
            fuse_head_stacks(stacks, self.WINDOW)
        assert info.value.index == 1

    def test_bad_shape_rejected(self):
        with pytest.raises(InvalidInputError):
            fuse_head_stacks(np.empty((0, 4, 4)))
        with pytest.raises(InvalidInputError):
            fuse_head_stacks(np.ones((4, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cfg", [FusionConfig(), FusionConfig(0.0, 1.0, enabled=True)],
                             ids=["disabled", "filter"])
    def test_non_finite_score_rejected(self, bad, cfg):
        # the filter would drop the bad head, whose variance is NaN, and
        # fuse the other alone
        with pytest.raises(InvalidInputError, match="finite"):
            fuse_head_stacks(np.array([[[bad, 1.0], [0.4, 0.6]]]), cfg)


class TestCrossAttentionBaseline:
    def test_single_hot_column(self):
        c = np.zeros((3, 4))
        c[:, 1] = 1.0
        out = cross_attention_baseline(c)
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_uniform_matrix(self):
        out = cross_attention_baseline(np.full((5, 4), 0.25))
        np.testing.assert_allclose(out, 0.25, atol=1e-12)

    def test_negative_entries_rejected(self):
        with pytest.raises(InvalidInputError):
            cross_attention_baseline(np.array([[1.0, -1.0]]))

    def test_diverges_from_wpr_on_constructed_pair(self):
        # Cross-attention: the image patches dump mass on the final
        # (context-aggregating) text column, so the column sum crowns it.
        cross = np.full((6, 4), 0.05)
        cross[:, 3] = 0.85
        # Companion self-attention: token 1 is the hub every token cites.
        self_attn = np.full((4, 4), 0.04)
        self_attn[:, 1] = 0.88
        assert ranking(cross_attention_baseline(cross))[0] == 3
        assert ranking(wpr_single_head(self_attn)[0])[0] == 1


def test_import_loads_no_scipy():
    import cdglab

    src = str(Path(cdglab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, cdglab; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
