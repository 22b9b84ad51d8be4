"""Subspace estimation, decoupling/interference metrics, and the sweep."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdglab import diffusion, geometry, linalg
from cdglab import encoder as encoder_module
from cdglab.degradation import map_ratio
from cdglab.diffusion import (
    GmmConditionalModel,
    SigmaSchedule,
    degrade_rows,
    degrade_set,
    denoise,
)
from cdglab.encoder import ToyTextEncoder, tokenize
from cdglab.errors import (
    AllHeadsFilteredError,
    InvalidInputError,
    InvalidRatioError,
    RankDeficientError,
    UndefinedMetricError,
)
from cdglab.geometry import (
    decoupling,
    energy_rank,
    interference,
    run_geometry_sweep,
)
from cdglab.guidance import denoiser_to_eps
from cdglab.importance import FusionConfig, stationary_scores
from cdglab.linalg import thin_svd
from oracles import (
    PredictionStack,
    estimate_subspace,
    orthonormal_basis,
    per_sigma_report,
    pooled_decoupling,
    pooled_interference,
)

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
        basis = orthonormal_basis(rng.normal(size=(4, 4)), 2)
        assert abs(decoupling(delta, basis) - decoupling(alpha * delta, basis)) < 1e-10
        assert (
            abs(interference(delta, basis) - interference(alpha * delta, basis))
            < 1e-10
        )


def _low_rank_rows(rng, v: int, d_x: int, r: int) -> np.ndarray:
    """v delta rows in R^d_x spanning an r-dimensional subspace."""
    return rng.normal(size=(v, r)) @ rng.normal(size=(r, d_x))


class TestPooledMetrics:
    """The stacked pooled path against one-member calls and the loop oracle."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d_x=st.integers(2, 6))
    def test_stacked_equals_per_matrix(self, seed, d_x):
        rng = np.random.default_rng(seed)
        # (v, r, k): rank below v with more columns than d_x, r > k, r <= k
        shapes = [(d_x + 2, d_x, 1), (d_x + 2, d_x - 1, d_x - 1), (3, 2, 1), (1, 1, d_x)]
        for _ in range(int(rng.integers(4, 12))):
            v = int(rng.integers(1, d_x + 3))
            shapes.append((v, int(rng.integers(1, min(v, d_x) + 1)), int(rng.integers(1, d_x + 1))))
        order = rng.permutation(len(shapes))
        spans = [_low_rank_rows(rng, v, d_x, r) for v, r, _ in (shapes[i] for i in order)]
        bases = [orthonormal_basis(rng.normal(size=(d_x, d_x)), shapes[i][2]) for i in order]
        stacked = geometry._pooled_metrics(spans, bases)
        for rows, basis, (dec, intf) in zip(spans, bases, stacked):
            assert decoupling(rows.T, basis) == dec
            assert interference(rows.T, basis) == intf
            assert pooled_decoupling(rows.T, basis) == dec
            assert pooled_interference(rows.T, basis) == intf

    def test_ranks_of_a_wide_span(self):
        rng = np.random.default_rng(7)
        wide = _low_rank_rows(rng, 6, 4, 4)
        assert thin_svd(wide.T).rank == 4 < len(wide)
        # the pooled span is all of R^d_x, so nothing lies outside the subspace
        basis = orthonormal_basis(rng.normal(size=(4, 4)), 2)
        assert abs(decoupling(wide.T, basis)) < 1e-15

    def test_one_zero_member_raises(self):
        rng = np.random.default_rng(8)
        spans = [rng.normal(size=(3, 5)), np.zeros((3, 5)), rng.normal(size=(2, 5))]
        bases = [orthonormal_basis(rng.normal(size=(5, 5)), 2)] * 3
        with pytest.raises(UndefinedMetricError):
            geometry._pooled_metrics(spans, bases)


def _default_rng_latents(seed, n_sigmas, n_prompts, d_x):
    return np.stack([
        np.random.default_rng([seed, si, p]).normal(size=d_x)
        for si in range(n_sigmas) for p in range(n_prompts)
    ])


class TestSeededLatents:
    """The sweep's one-pass latent draw against a generator per row."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**70 + 3])
    @pytest.mark.parametrize("d_x", [1, 4, 8, 33])
    @pytest.mark.parametrize("shape", [(1, 2), (28, 8)], ids=["1x2", "28x8"])
    def test_equals_default_rng(self, seed, d_x, shape):
        assert np.array_equal(
            geometry._seeded_normals(seed, *shape, d_x), _default_rng_latents(seed, *shape, d_x)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**96 - 1),
        n_sigmas=st.integers(1, 5),
        n_prompts=st.integers(1, 6),
        d_x=st.integers(1, 9),
    )
    def test_equals_default_rng_at_any_seed(self, seed, n_sigmas, n_prompts, d_x):
        assert np.array_equal(
            geometry._seeded_normals(seed, n_sigmas, n_prompts, d_x),
            _default_rng_latents(seed, n_sigmas, n_prompts, d_x),
        )

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="seed"):
            geometry._seeded_normals(-1, 1, 2, 4)


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
    states = {(t.ids, 1, model.d_x): encoder.prompt_state(t, 1, model.d_x) for t in tokens}
    rows = degrade_set(
        states,
        [
            (f"prompt {p}", t, c, ratios, 1, p)
            for p, (t, c) in enumerate(zip(tokens, conditions))
        ],
        model.d_x,
    )
    detail = []
    for si, sigma in enumerate(schedule.sigmas[:-1]):
        x = np.stack([
            np.random.default_rng([seed, si, p]).normal(size=model.d_x) * sigma
            for p in range(n)
        ])
        e_deg = degrade_rows(encoder, rows, x, sigma, model.d_c, FusionConfig(), 0.1)[2]
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
        calls = []
        denoised = []

        def counting_svd(m):
            result = thin_svd(m)
            calls.append((np.shape(m), result))
            return result

        def counting_denoise(model, x, sigma, e):
            denoised.append((np.shape(x), np.shape(sigma), np.shape(e)))
            return denoise(model, x, sigma, e)

        monkeypatch.setattr(geometry, "thin_svd", counting_svd)
        monkeypatch.setattr(linalg, "thin_svd", counting_svd)
        monkeypatch.setattr(geometry, "denoise", counting_denoise)
        short = SigmaSchedule.log_spaced(4, 10.0, 0.01)
        tokens = [tokenize(p, params) for p in PROMPTS + [""]]
        report = run_geometry_sweep(model, short, encoder, tokens, 1.0)
        n, rows = len(tokens), short.steps * len(tokens)
        # the (sigma, prompt) stack once
        assert calls[0][0] == (short.steps, n, model.d_x)
        stack = calls[0][1]
        ks = [min(energy_rank(stack.s[si]), n - 1) for si in range(short.steps)]
        # then the pooled (sigma, method) spans: one stacked SVD of the
        # spans of each valid prompt count, then per (rank, k) among them,
        # in order of first appearance, one SVD of the principal-angle
        # products. Every span here has full column rank r = count.
        groups: dict[int, dict[int, int]] = {}
        for si, pair in enumerate(zip(report.records[::2], report.records[1::2])):
            for rec in pair:
                by_k = groups.setdefault(rec["num_valid_prompts"], {})
                by_k[ks[si]] = by_k.get(ks[si], 0) + 1
        expected = []
        for count, by_k in groups.items():
            expected.append((sum(by_k.values()), model.d_x, count))
            expected += [(size, min(count, k), max(count, k)) for k, size in by_k.items()]
        assert [shape for shape, _ in calls[1:]] == expected
        assert expected == [(8, 8, 5), (2, 4, 5), (2, 3, 5), (2, 2, 5), (2, 1, 5)]
        # one call over the conditional, null and degraded rows, with a
        # column of per-row sigmas
        assert denoised == [((3 * rows, model.d_x), (3 * rows, 1), (3 * rows, model.d_c))]

    def test_one_solve_per_call(self, model, encoder, params, monkeypatch):
        shapes = []

        def recording(weights, **kwargs):
            shapes.append(np.shape(weights))
            return stationary_scores(weights, **kwargs)

        monkeypatch.setattr(diffusion, "stationary_scores", recording)
        short = SigmaSchedule.log_spaced(4, 10.0, 0.01)
        run_geometry_sweep(model, short, encoder, self._tokens(params), 0.5)
        n, h = params.seq_len, params.n_heads
        assert shapes == [(short.steps * len(PROMPTS) * h, n, n)]

    @pytest.mark.parametrize("r_deg, lambda_block", [(0.5, 0), (0.5, 1), (1.0, 1)])
    def test_one_walk_and_one_denoise(self, model, params, monkeypatch, r_deg, lambda_block):
        # the benchmark's 8 prompts once took 26 block passes and 3 denoise calls
        tokens = [tokenize(f"prompt number {i}", params) for i in range(8)]
        assert len({t.ids for t in tokens}) == 8
        encoder = ToyTextEncoder(params)
        passes, built, denoised = [], [], []
        # each block pass takes one softmax of its attention logits
        softmax, build = encoder_module._softmax_rows, encoder._build_state
        monkeypatch.setattr(
            encoder_module, "_softmax_rows", lambda a: passes.append(a.shape) or softmax(a)
        )
        monkeypatch.setattr(
            encoder, "_build_state", lambda key, *a: built.append(key) or build(key, *a)
        )
        monkeypatch.setattr(geometry, "denoise", lambda *a: denoised.append(a) or denoise(*a))
        short = SigmaSchedule.log_spaced(4, 10.0, 0.01)
        run_geometry_sweep(model, short, encoder, tokens, r_deg, lambda_block)
        # one stacked walk for the prompts, then the null's own
        one = (params.n_heads, params.seq_len, params.seq_len)
        assert passes == [(len(tokens), *one)] * params.n_blocks + [one] * params.n_blocks
        # each state once, in that walk: every lookup of degrade_set hits the store
        ranks = map_ratio(r_deg).ranks
        assert built == [(t.ids, lambda_block, model.d_x) for t in tokens if ranks]
        assert len(denoised) == 1

    def test_long_schedule_runs_in_blocks(self, model, encoder, params, monkeypatch):
        # 40 sigmas of 5 prompts: 200 rows, which a budget of 7 rows' weights
        # splits into 29 blocks that cut across sigmas
        tokens = self._tokens(params)
        long = SigmaSchedule.log_spaced(40, 10.0, 0.01)
        whole = run_geometry_sweep(model, long, encoder, tokens, 0.5, seed=5)
        blocks = []

        def recording(encoder, rows, x, sigma, *args):
            blocks.append((len(rows), x.shape, sigma.shape))
            return degrade_rows(encoder, rows, x, sigma, *args)

        row_bytes = params.n_heads * params.seq_len**2 * 8
        # the benchmark's 224 rows stay one call at the real budget
        assert geometry._DEGRADE_BLOCK_BYTES // row_bytes >= 224
        monkeypatch.setattr(geometry, "_DEGRADE_BLOCK_BYTES", 7 * row_bytes + 1)
        monkeypatch.setattr(geometry, "degrade_rows", recording)
        split = run_geometry_sweep(model, long, encoder, tokens, 0.5, seed=5)
        n_rows = long.steps * len(tokens)
        assert [b for b, _, _ in blocks] == [7] * 28 + [n_rows - 7 * 28]
        assert all(xs == (b, model.d_x) and ss == (b, 1) for b, xs, ss in blocks)
        assert split.detail == whole.detail
        assert split.records == whole.records

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

    # a seed past 2**64 gives each latent's seed five 32-bit entropy words
    @pytest.mark.parametrize("seed", [3, 2**64 + 5])
    def test_per_prompt_decoupling_matches_reference(self, model, encoder, params, seed):
        tokens = [tokenize(p, params) for p in PROMPTS + [""]]
        short = SigmaSchedule.log_spaced(6, 10.0, 0.01)
        report = run_geometry_sweep(model, short, encoder, tokens, 0.5, seed=seed)
        expected = _reference_detail(model, short, encoder, tokens, 0.5, seed=seed)
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
        with pytest.raises(RankDeficientError, match="k must be >= 1, got 0"):
            run_geometry_sweep(
                model, schedule, encoder, self._tokens(params), 1.0, k=0
            )

    @pytest.mark.parametrize(
        "k, error, message",
        [
            (-1, RankDeficientError, "k must be >= 1, got -1"),
            (2.0, InvalidInputError, "k must be an int or None, got 2.0"),
            (True, InvalidInputError, "k must be an int or None, got True"),
            (np.float64(2.0), InvalidInputError, "k must be an int or None"),
            ("2", InvalidInputError, "k must be an int or None, got '2'"),
        ],
        ids=["minus_one", "float", "bool", "numpy_float", "str"],
    )
    def test_bad_k_rejected_before_any_work(
        self, model, schedule, encoder, params, monkeypatch, k, error, message
    ):
        def no_work(*args):
            raise AssertionError("the sweep started before checking k")

        monkeypatch.setattr(geometry, "map_ratio", no_work)
        with pytest.raises(error, match=re.escape(message)):
            run_geometry_sweep(model, schedule, encoder, self._tokens(params), 1.0, k=k)

    def test_numpy_int_k_is_an_int(self, model, encoder, params):
        short = SigmaSchedule.log_spaced(4, 10.0, 0.01)
        tokens = self._tokens(params)
        report = run_geometry_sweep(model, short, encoder, tokens, 0.5, k=np.int64(2))
        assert report == run_geometry_sweep(model, short, encoder, tokens, 0.5, k=2)


def _same_report(new, ref):
    """Records and detail equal, floats bit for bit and None in the same places."""
    assert new.records == ref.records
    assert new.detail == ref.detail
    # repr round-trips every float and tells -0.0 from 0.0
    assert repr(new.records) == repr(ref.records)
    assert repr(new.detail) == repr(ref.detail)


# nine prompts, one empty: a CFG mean over eight valid prompts of nine, which
# pairwise summation groups unlike the whole row
NINE = PROMPTS + ["the dog runs in a park", "a woman paints the old wall", "two birds sing", ""]


class TestReportReference:
    """geometry._report's passes over every sigma against the per-sigma loop."""

    def _recorded(self, monkeypatch, *args, **kwargs):
        """run_geometry_sweep's report and the arguments of its one _report call."""
        calls = []
        report = geometry._report

        def recording(*a):
            calls.append(a)
            return report(*a)

        monkeypatch.setattr(geometry, "_report", recording)
        out = run_geometry_sweep(*args, **kwargs)
        assert len(calls) == 1
        return out, calls[0]

    @pytest.mark.parametrize("k", [None, 1, 2, 4])
    @pytest.mark.parametrize("prompts", [PROMPTS + [""], NINE], ids=["six", "nine"])
    def test_sweep_matches_per_sigma_loop(
        self, model, encoder, params, monkeypatch, prompts, k
    ):
        tokens = [tokenize(p, params) for p in prompts]
        short = SigmaSchedule.log_spaced(6, 10.0, 0.01)
        report, args = self._recorded(
            monkeypatch, model, short, encoder, tokens, 0.5, k=k, seed=3
        )
        assert any(r["num_valid_prompts"] == len(prompts) - 1 for r in report.records)
        _same_report(report, per_sigma_report(*args))

    @pytest.mark.parametrize("k", [None, 3])
    def test_rank_limited_stack_matches_per_sigma_loop(self, encoder, params, monkeypatch, k):
        # one component and d_c 1: every delta lies on one line
        model = GmmConditionalModel.random(1, 4, 1, seed=0)
        tokens = [tokenize(p, params) for p in PROMPTS[:3]]
        short = SigmaSchedule.log_spaced(6, 10.0, 0.01)
        report, args = self._recorded(monkeypatch, model, short, encoder, tokens, 0.5, k=k)
        assert {r["num_valid_prompts"] for r in report.records} == {3}
        _same_report(report, per_sigma_report(*args))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_prompts", [2, 3, 8, 9, 12])
    def test_random_stacks_match_per_sigma_loop(self, n_prompts, seed):
        rng = np.random.default_rng([seed, n_prompts])
        n_sigmas, d_x = 7, 6
        sigmas = tuple(np.geomspace(10.0, 0.01, n_sigmas).tolist())
        svd = thin_svd(rng.normal(size=(n_sigmas, n_prompts, d_x)))
        deltas = rng.normal(size=(n_sigmas, 2 * n_prompts, d_x))
        # zero deltas, a whole method of one sigma among them
        deltas[rng.random(deltas.shape[:2]) < 0.2] = 0.0
        deltas[2, n_prompts:] = 0.0
        for k in (None, 1, n_prompts):
            _same_report(geometry._report(sigmas, svd, deltas, k),
                         per_sigma_report(sigmas, svd, deltas, k))

    @pytest.mark.parametrize(
        "k, message", [(None, "all singular values are zero"), (2, "k=0 exceeds numerical rank 0")]
    )
    def test_rank_error_after_the_first_sigma(self, k, message):
        rng = np.random.default_rng(7)
        predictions = rng.normal(size=(3, 4, 6))
        predictions[1] = 0.0  # the second sigma's stack has rank 0
        svd, deltas = thin_svd(predictions), rng.normal(size=(3, 8, 6))
        sigmas = (3.0, 2.0, 1.0)
        with pytest.raises(RankDeficientError) as ref:
            per_sigma_report(sigmas, svd, deltas, k)
        assert str(ref.value) == message
        with pytest.raises(RankDeficientError) as new:
            geometry._report(sigmas, svd, deltas, k)
        assert str(new.value) == message
