"""Acceptance gate: ten oracle- and property-based criteria.

Each test prints one "ACCEPTANCE <n> <name>: PASS" line when its assertions
hold; a failing test leaves the line unprinted (pytest reports the failure).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from cdglab.cli import main
from cdglab.degradation import (
    build_mask,
    map_ratio,
)
from cdglab.diffusion import (
    Chain,
    GmmConditionalModel,
    SigmaSchedule,
    denoise,
    log_density,
    sample,
    sample_batch,
)
from cdglab.encoder import EncoderParams, TokenType, ToyTextEncoder, tokenize
from cdglab.geometry import decoupling, interference, run_geometry_sweep
from cdglab.guidance import GuidanceConfig, GuidanceMode, combine
from cdglab.importance import (
    cross_attention_baseline,
    ranking,
)

from conftest import encode_one, random_prompt
from oracles import denoiser_to_score, replaced, wpr_single_head


def _report(number: int, name: str) -> None:
    print(f"\nACCEPTANCE {number} {name}: PASS")


# --------------------------------------------------------------------------
# 1. WPR oracle equivalence


def _power_iteration_oracle(stack: np.ndarray) -> np.ndarray:
    """Batched reference: 10^4 normalized power iterations per matrix."""
    at = np.swapaxes(stack / stack.sum(axis=2, keepdims=True), 1, 2)
    s = np.full(stack.shape[:2], 1.0 / stack.shape[1])[..., None]
    for _ in range(10_000):
        s = at @ s
        s /= s.sum(axis=1, keepdims=True)
    return s[..., 0]


def test_criterion_1_wpr_oracle():
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    for n in (8, 32):
        stack = rng.uniform(0.01, 1.0, size=(50, n, n))
        oracle = _power_iteration_oracle(stack)
        for a, s in zip(stack, oracle):
            scores, converged = wpr_single_head(a)
            assert np.abs(scores - s).sum() < 1e-8
            assert converged
    assert time.perf_counter() - start < 5.0
    _report(1, "wpr-oracle-equivalence")


# --------------------------------------------------------------------------
# 2. Ratio mapping / mask exactness


def test_criterion_2_mask_exactness(params):
    rng = np.random.default_rng(200)
    grid = [i / 10 for i in range(21)]
    for p in range(50):
        tokens = tokenize(random_prompt(rng, params.seq_len - 2), params)
        n = len(tokens)
        raw = rng.uniform(0.01, 1.0, size=n)
        imp = raw / raw.sum()
        content = set(tokens.positions_of(TokenType.CONTENT))
        ctxagg = set(tokens.positions_of(TokenType.CTX_AGG))
        prev: set[int] = set()
        for r in grid:
            ratios = map_ratio(r)
            assert ratios.r_content == min(r, 1.0)
            assert ratios.r_ctxagg == max(r - 1.0, 0.0)
            mask = replaced(tokens, build_mask(tokens, imp, ratios))
            positions = set(mask.indices)
            # k-count formulas
            assert mask.k_content == int(np.floor(ratios.r_content * len(content)))
            assert mask.k_ctxagg == int(np.floor(ratios.r_ctxagg * len(ctxagg)))
            assert len(positions & content) == mask.k_content
            assert len(positions & ctxagg) == mask.k_ctxagg
            # content-first stratification
            if r <= 1.0:
                assert positions <= content
            if r >= 1.0:
                assert content <= positions
            # nestedness along the grid
            assert prev <= positions
            prev = positions
        # boundary fast path under adversarial importance
        for trial in range(3):
            adv_raw = rng.uniform(0.0, 1.0, size=n) ** 5
            adv_raw[0] = 10.0  # stack mass on a CtxAgg position
            adv = adv_raw / adv_raw.sum()
            slow = build_mask(tokens, adv, map_ratio(1.0))
            fast = build_mask(tokens, None, map_ratio(1.0))
            np.testing.assert_array_equal(slow, fast)
    _report(2, "ratio-and-mask-exactness")


# --------------------------------------------------------------------------
# 3. Reduction identities


PROMPTS_5 = [
    "a man is cooking",
    "a cat sits on the mat",
    "blue mountains at dusk",
    "robots dancing in rain",
    "an empty quiet street",
]


def test_criterion_3_reduction_identities(model, schedule, encoder, params):
    w = 3.0
    cfg = GuidanceConfig(mode=GuidanceMode.CFG, guidance_scale=w)
    cdg_full = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=w, r_deg=2.0)
    star_zero = GuidanceConfig(mode=GuidanceMode.CFG_STAR, guidance_scale=w, r_deg=0.0)
    unguided = GuidanceConfig(mode=GuidanceMode.NONE, guidance_scale=1.0)
    unit_modes = [
        GuidanceConfig(mode=GuidanceMode.CFG, guidance_scale=1.0),
        GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=1.0, r_deg=0.6),
        GuidanceConfig(mode=GuidanceMode.CFG_STAR, guidance_scale=1.0, r_deg=0.0),
    ]
    for prompt in PROMPTS_5:
        tokens = tokenize(prompt, params)
        for seed in range(10):
            t_cfg = np.stack(
                sample(model, schedule, encoder, tokens, cfg, seed).trajectory
            )
            t_cdg = np.stack(
                sample(model, schedule, encoder, tokens, cdg_full, seed).trajectory
            )
            assert np.abs(t_cfg - t_cdg).max() < 1e-12
            t_star = np.stack(
                sample(model, schedule, encoder, tokens, star_zero, seed).trajectory
            )
            assert np.abs(t_cfg - t_star).max() < 1e-12
            t_plain = np.stack(
                sample(model, schedule, encoder, tokens, unguided, seed).trajectory
            )
            for mode in unit_modes:
                t_unit = np.stack(
                    sample(model, schedule, encoder, tokens, mode, seed).trajectory
                )
                assert np.abs(t_unit - t_plain).max() < 1e-12
    _report(3, "reduction-identities")


# --------------------------------------------------------------------------
# 4. Denoiser correctness


def test_criterion_4_denoiser_correctness():
    rng = np.random.default_rng(400)
    model = GmmConditionalModel.random(3, 2, 3, seed=40)
    e = rng.normal(size=3)
    means = model.means(e)
    for sigma in (0.1, 0.5, 2.0):
        x = rng.normal(size=2) * (1.0 + sigma)
        # Monte-Carlo posterior mean: sample x0 ~ p(x0|e), weight by the
        # noise kernel N(x; x0, sigma^2 I), average
        n = 1_000_000
        comp = rng.choice(3, size=n, p=model.weights)
        x0 = means[comp] + rng.normal(size=(n, 2)) * model.spreads[comp][:, None]
        sq = np.sum((x - x0) ** 2, axis=1)
        logw = -sq / (2.0 * sigma * sigma)
        w = np.exp(logw - logw.max())
        mc = (w[:, None] * x0).sum(axis=0) / w.sum()
        analytic = denoise(model, x, sigma, e)
        rel = np.linalg.norm(analytic - mc) / max(np.linalg.norm(mc), 1e-12)
        assert rel < 1e-2, f"sigma={sigma}: relative error {rel}"
    # score vs central differences of the analytic log-density
    h = 1e-5
    big = GmmConditionalModel.random(4, 3, 4, seed=41)
    for point in range(100):
        e_p = rng.normal(size=4)
        x = rng.normal(size=3) * 2.0
        sigma = float(rng.uniform(0.1, 2.0))
        s = (denoise(big, x, sigma, e_p) - x) / sigma**2
        for i in range(3):
            d = np.zeros(3)
            d[i] = h
            fd = (
                log_density(big, x + d, sigma, e_p)
                - log_density(big, x - d, sigma, e_p)
            ) / (2 * h)
            assert abs(s[i] - fd) < 1e-6
    _report(4, "denoiser-correctness")


# --------------------------------------------------------------------------
# 5. Sampler correctness


def test_criterion_5_sampler_statistics(params):
    rng = np.random.default_rng(500)
    encoder = ToyTextEncoder(params, 2, 8)  # built for the model's widths
    maps = np.zeros((2, 2, 8))
    maps[0, :, 0] = [40.0, 0.0]
    maps[1, :, 0] = [-40.0, 0.0]
    tokens = tokenize("a man is cooking", params)
    e = encoder.pool(encode_one(encoder, tokens))
    scale = 4.0 / abs(40.0 * e[0])  # separate the two means by ~8 units
    model = GmmConditionalModel(
        maps=maps * scale,
        spreads=np.array([0.5, 0.5]),
        weights=np.array([0.65, 0.35]),
    )
    means = model.means(e)
    schedule = SigmaSchedule.log_spaced(200, 20.0, 0.005)
    config = GuidanceConfig(mode=GuidanceMode.NONE, guidance_scale=1.0)

    def sample_finals(schedule: SigmaSchedule, seeds) -> np.ndarray:
        chains = [Chain(tokens, config, s) for s in seeds]
        runs = sample_batch(model, schedule, encoder, chains)
        return np.stack([run.final for run in runs])

    finals = sample_finals(schedule, range(10_000))
    assign = np.argmin(
        np.linalg.norm(finals[:, None, :] - means[None, :, :], axis=2), axis=1
    )
    for j in range(2):
        cluster = finals[assign == j]
        weight = cluster.shape[0] / finals.shape[0]
        assert abs(weight - model.weights[j]) < 0.05, f"weight {j}: {weight}"
        err = np.linalg.norm(cluster.mean(axis=0) - means[j])
        assert err < 0.05 * np.linalg.norm(means[j]), f"mean {j}: {err}"
    # Euler order: halving the step size roughly halves the terminal error
    seeds = list(range(32))
    reference = sample_finals(SigmaSchedule.log_spaced(6400, 20.0, 0.005), seeds)
    err = {}
    for steps in (200, 400):
        finals_n = sample_finals(SigmaSchedule.log_spaced(steps, 20.0, 0.005), seeds)
        err[steps] = np.linalg.norm(finals_n - reference, axis=1).mean()
    ratio = err[200] / err[400]
    assert 1.5 <= ratio <= 2.5, f"Euler error ratio {ratio}"
    _report(5, "sampler-statistics")


# --------------------------------------------------------------------------
# 6. Geometry oracle


def test_criterion_6_geometry_oracle(model, schedule, encoder, params):
    basis = np.array([[1.0], [0.0]])
    for angle, dec, intf in (
        (0.0, 0.0, 1.0),
        (np.pi / 4, 0.5, 0.5),
        (np.pi / 2, 1.0, 0.0),
    ):
        delta = np.array([np.cos(angle), np.sin(angle)])
        assert abs(decoupling(delta, basis) - dec) < 1e-10
        assert abs(interference(delta, basis) - intf) < 1e-10
    from oracles import orthonormal_basis

    rng = np.random.default_rng(600)
    for _ in range(200):
        d = rng.integers(2, 8)
        k = int(rng.integers(1, d))
        b = orthonormal_basis(rng.normal(size=(d + 2, d)), k)
        delta = rng.normal(size=d)
        s = decoupling(delta, b) + interference(delta, b)
        assert abs(s - 1.0) < 1e-12
    tokens = [tokenize(p, params) for p in PROMPTS_5]
    report = run_geometry_sweep(model, schedule, encoder, tokens, 1.0)
    for rec in report.records:
        for key in ("decoupling_mean", "interference_mean",
                    "decoupling_pooled", "interference_pooled"):
            if rec[key] is not None:
                assert 0.0 <= rec[key] <= 1.0
    _report(6, "geometry-oracle")


# --------------------------------------------------------------------------
# 7. Denoiser-space vs score-space guidance equivalence


def test_criterion_7_space_equivalence():
    rng = np.random.default_rng(700)
    for _ in range(1000):
        sigma = float(rng.uniform(0.05, 5.0))
        w = float(rng.uniform(1.0, 10.0))
        x = rng.normal(size=4)
        d_cond, d_neg = rng.normal(size=4), rng.normal(size=4)
        combined = combine(d_cond, d_neg, w)
        via_d = denoiser_to_score(combined, x, sigma)
        s_c = denoiser_to_score(d_cond, x, sigma)
        s_n = denoiser_to_score(d_neg, x, sigma)
        via_s = s_c + (w - 1.0) * (s_c - s_n)
        scale = max(np.abs(via_s).max(), 1.0)
        assert np.abs(via_d - via_s).max() < 1e-12 * scale
    _report(7, "space-equivalence")


# --------------------------------------------------------------------------
# 8. Efficiency contract


def test_criterion_8_efficiency(model, schedule, encoder, params, tokens):
    reuse = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5)
    per_step = GuidanceConfig(
        mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=0.5,
        reuse_first_step_mask=False,
    )
    boundary = GuidanceConfig(mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=1.0)
    cfg = GuidanceConfig(mode=GuidanceMode.CFG, guidance_scale=3.0)
    assert sample(model, schedule, encoder, tokens, reuse, 0).wpr_call_count == 1
    assert (
        sample(model, schedule, encoder, tokens, per_step, 0).wpr_call_count
        == schedule.steps
    )
    assert sample(model, schedule, encoder, tokens, boundary, 0).wpr_call_count == 0

    # wall-time overhead of one-time CDG vs CFG over 50 seeds. This box's
    # CPU allowance is bursty (mean and even median timings swing by tens of
    # percent run to run), so the overhead is estimated from the quiet-CPU
    # floor: many interleaved runs per mode, compared at low percentiles.
    def run_one(config: GuidanceConfig, seed: int) -> float:
        t0 = time.perf_counter()
        sample(model, schedule, encoder, tokens, config, seed)
        return time.perf_counter() - t0

    run_one(cfg, 0)  # warmup: fills encoder/bias caches
    run_one(reuse, 0)
    cfg_times: list[float] = []
    cdg_times: list[float] = []
    for rep in range(24):
        for seed in range(50):
            if (rep + seed) % 2 == 0:
                cfg_times.append(run_one(cfg, seed))
                cdg_times.append(run_one(reuse, seed))
            else:
                cdg_times.append(run_one(reuse, seed))
                cfg_times.append(run_one(cfg, seed))
    floors = [
        np.percentile(cdg_times, q) / np.percentile(cfg_times, q) - 1.0
        for q in (1, 5, 10)
    ]
    overhead = min(floors)
    shown = ", ".join(f"{f:.2%}" for f in floors)
    estimate = f"overhead {overhead:.2%} (floors at p1, p5, p10: {shown})"
    assert overhead < 0.10, f"one-time CDG {estimate}"
    _report(8, f"efficiency-contract, {estimate}")


# --------------------------------------------------------------------------
# 9. Baseline divergence


def test_criterion_9_baseline_divergence(params):
    tokens = tokenize("a man is cooking", params)
    n = len(tokens)
    pad = n - 1  # a CtxAgg padding position
    hub = 2  # a Content position ("man")
    # cross-attention: image patches pile mass on the PAD column
    cross = np.full((12, n), 0.02)
    cross[:, pad] = 0.9
    # companion self-attention: every token routes to the content hub
    self_attn = np.full((n, n), 0.01)
    self_attn[:, hub] = 0.8
    ranked_cross = cross_attention_baseline(cross)
    ranked_wpr, _ = wpr_single_head(self_attn)
    top_cross = int(ranking(ranked_cross)[0])
    top_wpr = int(ranking(ranked_wpr)[0])
    assert tokens.types[top_cross] is TokenType.CTX_AGG and top_cross == pad
    assert tokens.types[top_wpr] is TokenType.CONTENT and top_wpr == hub
    assert top_cross != top_wpr
    _report(9, "baseline-divergence")


# --------------------------------------------------------------------------
# 10. CLI determinism


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "encoder": {"seq_len": 16, "seed": 10},
        "model": {"n_components": 4, "d_x": 8, "d_c": 8, "seed": 0},
        "schedule": {"steps": 12, "sigma_max": 10.0, "sigma_min": 0.01},
        "guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 0.5},
        "prompts": ["a man is cooking", "a cat sits on the mat"],
        "seed": 7,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    commands = [
        ["rank-tokens", "--prompt", "a man is cooking"],
        ["build-mask", "--prompt", "a man is cooking", "--r-deg", "1.25"],
        ["sample"],
        ["sweep", "--grid", "0,0.5,1,1.5,2"],
        ["diagnose"],
    ]
    outputs: list[dict[str, bytes]] = []
    for run_idx in range(2):
        root = tmp_path / f"run{run_idx}"
        for cmd in commands:
            out = root / cmd[0]
            code = main(cmd + ["--config", str(config_path), "--out", str(out)])
            assert code == 0, f"{cmd[0]} failed on run {run_idx}"
        files = {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }
        outputs.append(files)
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
    _report(10, "cli-determinism")
