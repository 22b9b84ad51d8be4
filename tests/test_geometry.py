"""Subspace estimation, decoupling/interference metrics, and the sweep."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdglab import diffusion, geometry
from cdglab.degradation import map_ratio
from cdglab.diffusion import DegradeRow, SigmaSchedule, degrade_rows, denoise
from cdglab.encoder import tokenize
from cdglab.errors import (
    AllHeadsFilteredError,
    InvalidInputError,
    InvalidRatioError,
    RankDeficientError,
    UndefinedMetricError,
)
from cdglab.geometry import (
    PredictionStack,
    decoupling,
    energy_rank,
    estimate_subspace,
    interference,
    run_geometry_sweep,
)
from cdglab.guidance import denoiser_to_eps
from cdglab.importance import FusionConfig, stationary_scores
from cdglab.linalg import thin_svd

E1 = np.array([[1.0], [0.0]])


class TestEstimateSubspace:
    def test_identical_rows(self):
        direction = np.array([3.0, 4.0, 0.0])
        stack = PredictionStack(sigma=1.0, rows=np.tile(direction, (5, 1)))
        basis = estimate_subspace(stack, 1)
        np.testing.assert_allclose(
            np.abs(basis[:, 0]), np.abs(direction) / 5.0, atol=1e-12
        )

    def test_planted_two_dim_span(self):
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=(6, 2))
        rows = np.zeros((6, 4))
        rows[:, :2] = coeffs
        basis = estimate_subspace(PredictionStack(sigma=1.0, rows=rows), 2)
        proj = basis @ basis.T
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = 1.0
        np.testing.assert_allclose(proj, expected, atol=1e-10)

    def test_full_rank_identity_projector(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(8, 3))
        basis = estimate_subspace(PredictionStack(sigma=1.0, rows=rows), 3)
        np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-10)

    def test_rank_deficient_rejected(self):
        rows = np.tile(np.array([1.0, 0.0]), (4, 1))
        with pytest.raises(RankDeficientError):
            estimate_subspace(PredictionStack(sigma=1.0, rows=rows), 2)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(6, 4))
        stack = PredictionStack(sigma=1.0, rows=rows)
        shuffled = PredictionStack(sigma=1.0, rows=rows[rng.permutation(6)])
        p1 = estimate_subspace(stack, 2)
        p2 = estimate_subspace(shuffled, 2)
        np.testing.assert_allclose(p1 @ p1.T, p2 @ p2.T, atol=1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            PredictionStack(sigma=1.0, rows=np.array([[np.inf, 0.0]]))


class TestMetrics:
    def test_planted_angles(self):
        for angle, dec, intf in ((0.0, 0.0, 1.0), (np.pi / 4, 0.5, 0.5), (np.pi / 2, 1.0, 0.0)):
            delta = np.array([np.cos(angle), np.sin(angle)])
            assert abs(decoupling(delta, E1) - dec) < 1e-10
            assert abs(interference(delta, E1) - intf) < 1e-10

    def test_zero_delta_rejected(self):
        with pytest.raises(UndefinedMetricError):
            decoupling(np.zeros(2), E1)
        with pytest.raises(UndefinedMetricError):
            interference(np.zeros(2), E1)

    def test_energy_rank(self):
        assert energy_rank(np.array([3.0, 1e-8])) == 1
        assert energy_rank(np.array([1.0, 1.0])) == 2
        with pytest.raises(RankDeficientError):
            energy_rank(np.zeros(3))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_one_dim_complementarity(self, seed):
        rng = np.random.default_rng(seed)
        delta = rng.normal(size=5)
        from cdglab.linalg import orthonormal_basis

        basis = orthonormal_basis(rng.normal(size=(5, 5)), 2)
        d = decoupling(delta, basis)
        i = interference(delta, basis)
        assert 0.0 <= d <= 1.0 and 0.0 <= i <= 1.0
        assert abs(d + i - 1.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        alpha=st.floats(-100.0, 100.0, allow_nan=False).filter(
            lambda v: abs(v) > 1e-6
        ),
    )
    def test_scale_invariance(self, seed, alpha):
        rng = np.random.default_rng(seed)
        delta = rng.normal(size=4)
        from cdglab.linalg import orthonormal_basis

        basis = orthonormal_basis(rng.normal(size=(4, 4)), 2)
        assert abs(decoupling(delta, basis) - decoupling(alpha * delta, basis)) < 1e-10
        assert (
            abs(interference(delta, basis) - interference(alpha * delta, basis))
            < 1e-10
        )


def _reference_detail(model, schedule, encoder, tokens, r_deg, seed):
    """(sigma, method, prompt, decoupling) of a per-sigma sweep from public parts.

    Each sigma draws its own latents, degrades them, denoises at a scalar
    sigma, and takes each prompt's decoupling from its principal angle.
    """
    n = len(tokens)
    ratios = map_ratio(r_deg)
    conditions = [encoder.encode(t) for t in tokens]
    e_c = np.stack([encoder.pool(c, model.d_c) for c in conditions])
    e_null = np.tile(encoder.pool(encoder.null_condition(), model.d_c), (n, 1))
    rows = [
        DegradeRow(f"prompt {p}", t, c, ratios, encoder.prompt_state(t, 1, model.d_x))
        for p, (t, c) in enumerate(zip(tokens, conditions))
    ]
    detail = []
    for si, sigma in enumerate(schedule.sigmas[:-1]):
        x = np.stack([
            np.random.default_rng([seed, si, p]).normal(size=model.d_x) * sigma
            for p in range(n)
        ])
        e_deg = degrade_rows(encoder, rows, x, sigma, model.d_c, None, 0.1)[2]
        eps_c, eps_null, eps_deg = (
            denoiser_to_eps(denoise(model, x, sigma, e), x, sigma)
            for e in (e_c, e_null, e_deg)
        )
        stack = PredictionStack(sigma=sigma, rows=eps_c)
        svd = thin_svd(eps_c)
        k = min(energy_rank(svd.s), n - 1, svd.rank)
        basis = estimate_subspace(stack, k)
        for method, eps_neg in (("cfg", eps_null), ("cdg", eps_deg)):
            for p, delta in enumerate(eps_c - eps_neg):
                try:
                    dec = decoupling(delta, basis)
                except UndefinedMetricError:
                    dec = None
                detail.append((sigma, method, p, dec))
    return detail


PROMPTS = [
    "a man is cooking",
    "a cat sits on the mat",
    "blue mountains at dusk",
    "robots dancing in rain",
    "an empty quiet street",
]


class TestSweep:
    def _tokens(self, params):
        return [tokenize(p, params) for p in PROMPTS]

    def test_degenerate_zero_ratio_flagged(self, model, schedule, encoder, params):
        report = run_geometry_sweep(model, schedule, encoder, self._tokens(params), 0.0)
        cdg_rows = [r for r in report.records if r["method"] == "cdg"]
        assert cdg_rows and all(r["num_valid_prompts"] == 0 for r in cdg_rows)
        assert all(r["decoupling_mean"] is None for r in cdg_rows)

    def test_full_ratio_matches_cfg(self, model, schedule, encoder, params):
        report = run_geometry_sweep(model, schedule, encoder, self._tokens(params), 2.0)
        by_sigma: dict[float, dict[str, dict]] = {}
        for rec in report.records:
            by_sigma.setdefault(rec["sigma"], {})[rec["method"]] = rec
        for pair in by_sigma.values():
            assert pair["cfg"]["decoupling_mean"] == pytest.approx(
                pair["cdg"]["decoupling_mean"], abs=1e-12
            )
            assert pair["cfg"]["interference_mean"] == pytest.approx(
                pair["cdg"]["interference_mean"], abs=1e-12
            )

    def test_metrics_in_unit_interval(self, model, schedule, encoder, params):
        report = run_geometry_sweep(model, schedule, encoder, self._tokens(params), 1.0)
        assert len(report.records) == 2 * schedule.steps
        for rec in report.records:
            for key in (
                "decoupling_mean",
                "interference_mean",
                "decoupling_pooled",
                "interference_pooled",
            ):
                if rec[key] is not None:
                    assert 0.0 <= rec[key] <= 1.0

    def test_too_few_prompts_rejected(self, model, schedule, encoder, params):
        with pytest.raises(InvalidInputError):
            run_geometry_sweep(
                model, schedule, encoder, self._tokens(params)[:1], 1.0
            )

    def test_invalid_ratio_rejected(self, model, schedule, encoder, params):
        with pytest.raises(InvalidRatioError):
            run_geometry_sweep(model, schedule, encoder, self._tokens(params), 2.5)

    def test_stack_decomposed_once_per_sigma(self, model, encoder, params, monkeypatch):
        shapes = []
        denoised = []

        def counting_svd(m):
            shapes.append(np.shape(m))
            return thin_svd(m)

        def counting_denoise(model, x, sigma, e):
            denoised.append((np.shape(x), np.shape(sigma), np.shape(e)))
            return denoise(model, x, sigma, e)

        monkeypatch.setattr(geometry, "thin_svd", counting_svd)
        monkeypatch.setattr(geometry, "denoise", counting_denoise)
        short = SigmaSchedule.log_spaced(4, 10.0, 0.01)
        run_geometry_sweep(model, short, encoder, self._tokens(params), 1.0)
        n, rows = len(PROMPTS), short.steps * len(PROMPTS)
        # the (sigma, prompt) stack once, then the pooled CFG and CDG delta
        # spans at each sigma
        assert shapes[0] == (short.steps, n, model.d_x)
        assert shapes[1:] == [(model.d_x, n)] * (2 * short.steps)
        # one call each for the conditional, null and degraded rows, with a
        # column of per-row sigmas
        assert denoised == [((rows, model.d_x), (rows, 1), (rows, model.d_c))] * 3

    def test_one_solve_per_sigma(self, model, encoder, params, monkeypatch):
        shapes = []

        def recording(weights):
            shapes.append(np.shape(weights))
            return stationary_scores(weights)

        monkeypatch.setattr(diffusion, "stationary_scores", recording)
        short = SigmaSchedule.log_spaced(4, 10.0, 0.01)
        run_geometry_sweep(model, short, encoder, self._tokens(params), 0.5)
        n, h = params.seq_len, params.n_heads
        assert shapes == [(len(PROMPTS) * h, n, n)] * short.steps

    def test_all_heads_filtered_names_prompt_and_sigma(self, model, encoder, params):
        tokens = self._tokens(params)
        variances = [
            np.var(stationary_scores(encoder.prompt_state(t, 1, model.d_x).static), axis=1)
            for t in tokens
        ]
        v = variances[0][0]
        fusion = FusionConfig(v_min=v * (1 - 1e-9), v_max=v * (1 + 1e-9), enabled=True)
        assert not ((variances[1] >= fusion.v_min) & (variances[1] <= fusion.v_max)).any()
        short = SigmaSchedule.log_spaced(4, 10.0, 0.01)
        with pytest.raises(
            AllHeadsFilteredError, match=f"prompt 1 at sigma {short.sigmas[0]}"
        ):
            run_geometry_sweep(
                model, short, encoder, tokens, 0.5,
                fusion=fusion, attention_bias_weight=0.0,
            )

    def test_per_prompt_decoupling_matches_reference(self, model, encoder, params):
        tokens = [tokenize(p, params) for p in PROMPTS + [""]]
        short = SigmaSchedule.log_spaced(6, 10.0, 0.01)
        report = run_geometry_sweep(model, short, encoder, tokens, 0.5, seed=3)
        expected = _reference_detail(model, short, encoder, tokens, 0.5, seed=3)
        assert len(report.detail) == len(expected)
        assert any(dec is None for *_, dec in expected)
        for row, (sigma, method, p, dec) in zip(report.detail, expected):
            assert (row["sigma"], row["method"], row["prompt_index"]) == (sigma, method, p)
            if dec is None:
                assert row["decoupling"] is None and row["note"] == "zero delta"
            else:
                assert abs(row["decoupling"] - dec) < 1e-12

    def test_null_prompt_has_zero_cfg_delta(self, model, encoder, params):
        prompts = PROMPTS + [""]
        tokens = [tokenize(p, params) for p in prompts]
        short = SigmaSchedule.log_spaced(6, 10.0, 0.01)
        report = run_geometry_sweep(model, short, encoder, tokens, 0.5)
        blank = len(prompts) - 1
        cfg_blank = [
            row for row in report.detail
            if row["method"] == "cfg" and row["prompt_index"] == blank
        ]
        assert len(cfg_blank) == short.steps
        assert all(row["note"] == "zero delta" for row in cfg_blank)
        assert all(row["decoupling"] is None for row in cfg_blank)
        cfg_rows = [r for r in report.records if r["method"] == "cfg"]
        assert all(r["num_valid_prompts"] == len(prompts) - 1 for r in cfg_rows)

    def test_zero_k_rejected(self, model, schedule, encoder, params):
        with pytest.raises(RankDeficientError):
            run_geometry_sweep(
                model, schedule, encoder, self._tokens(params), 1.0, k=0
            )
