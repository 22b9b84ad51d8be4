"""Command-line front end.

Subcommands: rank-tokens, build-mask, sample, sweep, diagnose. One JSON
config drives everything; outputs are CSV/JSON files with stable key order,
byte-identical across reruns with the same config and seed. Wall-clock
timings go to stderr so the emitted files stay deterministic.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import degradation, geometry, importance
from .config import RunConfig, config_echo, load_config
from .diffusion import Chain, sample_batch
from .encoder import TokenType, tokenize
from .errors import CdgError, ConfigError, InvalidRatioError, NumericalError
from .guidance import GuidanceConfig, GuidanceMode

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

DEFAULT_SWEEP_GRID = [i / 10 for i in range(21)]


class OutputExistsError(ConfigError):
    pass


def _write_text(path: Path, text: str, force: bool) -> None:
    if path.exists() and not force:
        raise OutputExistsError(f"refusing to overwrite {path} (use --force)")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, obj, force: bool) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"refusing to write {path}: {exc}") from exc
    _write_text(path, text + "\n", force)


def _write_csv(path: Path, header: list[str], rows: list[list], force: bool) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    _write_text(path, buf.getvalue(), force)


def _fused_importance(cfg: RunConfig, encoder, tokens):
    per_head = importance.stationary_scores(
        encoder.attention_at_block(tokens, cfg.guidance.lambda_block)
    )
    return per_head, importance.fuse_heads(per_head, cfg.fusion)


def cmd_rank_tokens(cfg: RunConfig, prompt: str, out: Path, force: bool) -> int:
    encoder = cfg.build_encoder()
    tokens = tokenize(prompt, cfg.encoder)
    per_head, fused = _fused_importance(cfg, encoder, tokens)
    ranks = np.empty(len(tokens), dtype=int)
    ranks[fused.sorted_indices] = np.arange(1, len(tokens) + 1)
    _write_json(
        out / "rankings.json",
        {
            "prompt": prompt,
            "lambda_block": cfg.guidance.lambda_block,
            "per_head_scores": per_head.tolist(),
            "tokens": [
                {
                    "position": i,
                    "token": tokens.texts[i],
                    "id": tokens.ids[i],
                    "type": tokens.types[i].value,
                    "score": float(fused.scores[i]),
                    "rank": int(ranks[i]),
                }
                for i in range(len(tokens))
            ],
        },
        force,
    )
    _write_csv(
        out / "rankings.csv",
        ["position", "score", "type"],
        [
            [i, float(fused.scores[i]), tokens.types[i].value]
            for i in range(len(tokens))
        ],
        force,
    )
    return EXIT_OK


def _rank_within_type(tokens, scores) -> list[int]:
    ranks = [0] * len(tokens)
    for ttype in TokenType:
        pos = tokens.positions_of(ttype)
        order = np.argsort(-scores[np.asarray(pos, dtype=int)], kind="stable") if pos else []
        for r, j in enumerate(order):
            ranks[pos[j]] = r + 1
    return ranks


def cmd_build_mask(cfg: RunConfig, prompt: str, r_deg: float, out: Path, force: bool) -> int:
    encoder = cfg.build_encoder()
    tokens = tokenize(prompt, cfg.encoder)
    ratios = degradation.map_ratio(r_deg)
    _, fused = _fused_importance(cfg, encoder, tokens)
    mask = degradation.build_mask(tokens, fused, ratios)
    ranks = _rank_within_type(tokens, fused.scores)
    _write_json(
        out / "mask.json",
        {
            "prompt": prompt,
            "r_deg": ratios.r_deg,
            "r_content": ratios.r_content,
            "r_ctxagg": ratios.r_ctxagg,
            "k_content": mask.k_content,
            "k_ctxagg": mask.k_ctxagg,
            "replaced_indices": list(mask.replaced_indices),
            "positions": [
                {
                    "position": i,
                    "token": tokens.texts[i],
                    "type": tokens.types[i].value,
                    "bit": int(mask.bits[i]),
                    "rank_within_type": ranks[i],
                }
                for i in range(len(tokens))
            ],
        },
        force,
    )
    return EXIT_OK


def cmd_sample(cfg: RunConfig, out: Path, force: bool) -> int:
    model = cfg.build_model()
    schedule = cfg.build_schedule()
    encoder = cfg.build_encoder()
    chains = [
        Chain(tokenize(prompt, cfg.encoder), cfg.guidance, cfg.seed)
        for prompt in cfg.prompts
    ]
    t0 = time.perf_counter()
    runs = sample_batch(
        model, schedule, encoder, chains,
        fusion=cfg.fusion, attention_bias_weight=cfg.attention_bias_weight,
    )
    elapsed = time.perf_counter() - t0
    meta = {"config": config_echo(cfg), "runs": []}
    header = ["step", "sigma"] + [f"x{i}" for i in range(model.d_x)]
    for p, (prompt, run) in enumerate(zip(cfg.prompts, runs)):
        rows = [
            [step, float(run.sigmas[step])] + [float(v) for v in x]
            for step, x in enumerate(run.trajectory)
        ]
        _write_csv(out / f"trajectory_{p:03d}.csv", header, rows, force)
        meta["runs"].append(
            {
                "prompt": prompt,
                "prompt_index": p,
                "wpr_call_count": run.wpr_call_count,
                "final": [float(v) for v in run.final],
            }
        )
    print(f"[sample] {len(runs)} prompts: {elapsed:.3f}s", file=sys.stderr)
    _write_json(out / "metadata.json", meta, force)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, grid: list[float], out: Path, force: bool) -> int:
    model = cfg.build_model()
    schedule = cfg.build_schedule()
    encoder = cfg.build_encoder()
    base = cfg.guidance
    if not base.mode.uses_degradation:
        base = GuidanceConfig(
            mode=GuidanceMode.CDG,
            guidance_scale=base.guidance_scale,
            r_deg=1.0,
            lambda_block=base.lambda_block,
            reuse_first_step_mask=base.reuse_first_step_mask,
        )
    reference = GuidanceConfig(mode=GuidanceMode.NONE, guidance_scale=1.0)
    tokens = [tokenize(prompt, cfg.encoder) for prompt in cfg.prompts]
    cells = [(r_deg, p) for r_deg in grid for p in range(len(tokens))]

    # one batch: the unguided reference of each prompt, then the grid
    runs = sample_batch(
        model, schedule, encoder,
        [Chain(t, reference, cfg.seed) for t in tokens]
        + [Chain(tokens[p], replace(base, r_deg=r_deg), cfg.seed) for r_deg, p in cells],
        fusion=cfg.fusion, attention_bias_weight=cfg.attention_bias_weight,
    )
    refs, runs = runs[: len(tokens)], runs[len(tokens) :]
    rows = []
    for (r_deg, p), run in zip(cells, runs):
        mask = run.masks_used[0]
        rows.append(
            [
                float(r_deg),
                p,
                cfg.prompts[p],
                len(mask.replaced_indices),
                mask.k_content,
                mask.k_ctxagg,
                run.wpr_call_count,
                float(np.linalg.norm(run.final - refs[p].final)),
            ]
        )
    _write_csv(
        out / "sweep.csv",
        ["r_deg", "prompt_index", "prompt", "replaced_count", "k_content",
         "k_ctxagg", "wpr_call_count", "final_distance_to_conditional"],
        rows,
        force,
    )
    return EXIT_OK


def cmd_diagnose(cfg: RunConfig, out: Path, force: bool) -> int:
    if len(cfg.prompts) < 2:
        raise ConfigError("diagnose needs at least 2 prompts")
    model = cfg.build_model()
    schedule = cfg.build_schedule()
    encoder = cfg.build_encoder()
    tokens = [tokenize(p, cfg.encoder) for p in cfg.prompts]
    g = cfg.guidance
    report = geometry.run_geometry_sweep(
        model, schedule, encoder, tokens,
        g.r_deg if g.mode.uses_degradation else 1.0, g.lambda_block,
        k=cfg.geometry_k, seed=cfg.seed, fusion=cfg.fusion,
        attention_bias_weight=cfg.attention_bias_weight,
    )
    _write_csv(
        out / "geometry.csv",
        ["sigma", "method", "decoupling_mean", "interference_mean",
         "num_valid_prompts", "decoupling_pooled", "interference_pooled"],
        [
            [
                rec["sigma"], rec["method"], rec["decoupling_mean"],
                rec["interference_mean"], rec["num_valid_prompts"],
                rec["decoupling_pooled"], rec["interference_pooled"],
            ]
            for rec in report.records
        ],
        force,
    )
    _write_json(out / "geometry.json", {"detail": report.detail}, force)
    return EXIT_OK


def _ratio(value: float) -> float:
    """A degradation ratio given on the command line; out of range is a usage error."""
    try:
        return degradation.map_ratio(value).r_deg
    except InvalidRatioError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_grid(text: str) -> list[float]:
    try:
        values = [_ratio(float(v)) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc
    if not values:
        raise ConfigError("empty sweep grid")
    return values


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", type=Path, help="path to the run-config JSON")
    shared.add_argument("--out", type=Path, help="output directory (default: config out_dir)")
    shared.add_argument("--seed", type=int, help="override the config seed")
    shared.add_argument("--force", action="store_true", help="overwrite existing outputs")

    parser = argparse.ArgumentParser(prog="cdglab", parents=[shared])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank-tokens", parents=[shared], help="token importance ranking")
    p.add_argument("--prompt", required=True)

    p = sub.add_parser("build-mask", parents=[shared], help="stratified degradation mask")
    p.add_argument("--prompt", required=True)
    p.add_argument("--r-deg", type=float, default=None)

    sub.add_parser("sample", parents=[shared], help="guided sampling per prompt")

    p = sub.add_parser("sweep", parents=[shared], help="degradation-ratio sweep")
    p.add_argument("--grid", type=str, default=None,
                   help="comma-separated ratios (default 0.0..2.0 step 0.1)")

    sub.add_parser("diagnose", parents=[shared], help="guidance-geometry report")
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.config is None:
        raise ConfigError("--config is required")
    cfg = load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        cfg.seed = args.seed
    out = args.out if args.out is not None else Path(cfg.out_dir)
    force = args.force

    if args.command == "rank-tokens":
        return cmd_rank_tokens(cfg, args.prompt, out, force)
    if args.command == "build-mask":
        r_deg = args.r_deg
        if r_deg is None:
            r_deg = cfg.guidance.r_deg if cfg.guidance.r_deg is not None else 1.0
        return cmd_build_mask(cfg, args.prompt, _ratio(r_deg), out, force)
    if args.command == "sample":
        return cmd_sample(cfg, out, force)
    if args.command == "sweep":
        grid = _parse_grid(args.grid) if args.grid else DEFAULT_SWEEP_GRID
        return cmd_sweep(cfg, grid, out, force)
    if args.command == "diagnose":
        return cmd_diagnose(cfg, out, force)
    raise ConfigError(f"unknown command {args.command}")


def main(argv: list[str] | None = None) -> int:
    try:
        # an overflow or invalid value reaches a finite check that raises a
        # typed error, so numpy's warning would only print noise before it
        with np.errstate(over="ignore", invalid="ignore"):
            return run(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CdgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
