"""Command-line front end.

Subcommands: rank-tokens, build-mask, sample, sweep, diagnose. One JSON
config drives everything; outputs are CSV/JSON files with stable key order,
byte-identical across reruns with the same config and seed. Wall-clock
timings go to stderr so the emitted files stay deterministic.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys
import time
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import degradation, geometry, importance
from .config import RunConfig, config_echo, load_config
from .diffusion import Chain, sample_batch
from .encoder import TokenType, tokenize
from .errors import CdgError, ConfigError, InvalidRatioError, NumericalError, PromptTooLongError
from .guidance import GuidanceConfig, GuidanceMode

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

DEFAULT_SWEEP_GRID = [i / 10 for i in range(21)]


class OutputExistsError(ConfigError):
    pass


class OutputUnwritableError(ConfigError):
    pass


def _check_outputs(out: Path, names: list[str], force: bool) -> None:
    """Refuse, before any compute and creating nothing, an existing output
    without --force, or an out whose nearest existing ancestor is no directory."""
    for name in names:
        if (out / name).exists() and not force:
            raise OutputExistsError(f"refusing to overwrite {out / name} (use --force)")
    ancestor = next((p for p in (out, *out.parents) if p.exists()), out)
    if not ancestor.is_dir():
        raise OutputUnwritableError(f"cannot write {out}: {ancestor} is not a directory")


def _write_text(path: Path, text: str, force: bool) -> None:
    if path.exists() and not force:
        raise OutputExistsError(f"refusing to overwrite {path} (use --force)")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise OutputUnwritableError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_json(path: Path, obj, force: bool) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"refusing to write {path}: {exc}") from exc
    _write_text(path, text + "\n", force)


# one geometry.json detail row, laid out as json.dumps(indent=2, sort_keys=True) lays it out
_DETAIL_ROW = ('    {\n      "decoupling": %s,\n      "interference": %s,\n      "method": %s,\n'
               '      "note": %s,\n      "prompt_index": %d,\n      "sigma": %s\n    }')


def _geometry_json(path: Path, detail: list[dict]) -> str:
    """The text _write_json writes for {"detail": detail}, or its NumericalError.

    json.dumps falls back to its pure-Python encoder under indent=2, so the
    fixed schema is formatted here, one template per row: floats by
    float.__repr__, strings by json's own ASCII escaper, None as null. Each
    distinct string is escaped once and each distinct sigma written once.
    """
    strings = {s: encode_basestring_ascii(s)
               for s in {d["method"] for d in detail} | {d["note"] for d in detail}}
    sigmas = {s: float.__repr__(s) for s in {d["sigma"] for d in detail}}
    fields, values = [], []
    for d in detail:
        dec, intf, sigma = d["decoupling"], d["interference"], d["sigma"]
        values += (0.0 if dec is None else dec, 0.0 if intf is None else intf, sigma)
        fields += (
            "null" if dec is None else float.__repr__(dec),
            "null" if intf is None else float.__repr__(intf),
            strings[d["method"]], strings[d["note"]], d["prompt_index"],
            # 0.0 and -0.0 are one key but two texts
            sigmas[sigma] if sigma else float.__repr__(sigma),
        )
    finite = np.isfinite(values)
    if not finite.all():
        raise NumericalError(f"refusing to write {path}: Out of range float values "
                             f"are not JSON compliant: {float.__repr__(values[finite.argmin()])}")
    rows = ",\n".join([_DETAIL_ROW] * len(detail)) % tuple(fields)
    return '{\n  "detail": ' + ("[\n" + rows + "\n  ]" if detail else "[]") + "\n}\n"


def _write_csv(path: Path, header: list[str], rows: list[list], force: bool) -> None:
    """header and rows, of two or more fields each, as csv.writer writes them
    with floats by repr, from one row template: a column of floats and ints
    fills it as it is (%s writes a float's repr), any other value by value,
    None as "" and each distinct string quoted once, by csv.writer itself."""
    quoted: dict[str, str] = {}

    def text(v) -> str:
        if isinstance(v, str):
            if v not in quoted:
                buf = io.StringIO()
                csv.writer(buf, lineterminator="\n").writerow([v, ""])
                quoted[v] = buf.getvalue()[:-2]  # less the delimiter and terminator
            return quoted[v]
        return "" if v is None else repr(v) if isinstance(v, float) else str(v)

    cols = [c if set(map(type, c)) <= {float, int} else list(map(text, c)) for c in zip(*rows)]
    row = ",".join(["%s"] * len(header)) + "\n"
    body = row * len(rows) % tuple(itertools.chain.from_iterable(zip(*cols)))
    _write_text(path, ",".join(map(text, header)) + "\n" + body, force)


def _fused_importance(cfg: RunConfig, encoder, tokens):
    # the block's attention: static is exp of its logits less each row's max
    _, states = encoder.encode_stack([tokens], [cfg.guidance.lambda_block])
    (state,) = states.values()
    static = state.static
    per_head = importance.stationary_scores(static / static.sum(axis=-1, keepdims=True))
    return per_head, importance.fuse_head_stacks(per_head[None], cfg.fusion)[0]


def cmd_rank_tokens(cfg: RunConfig, prompt: str, out: Path, force: bool) -> int:
    tokens = tokenize(prompt, cfg.encoder)
    _check_outputs(out, ["rankings.json", "rankings.csv"], force)
    encoder = cfg.build_encoder()
    per_head, fused = _fused_importance(cfg, encoder, tokens)
    ranks = np.empty(len(tokens), dtype=int)
    ranks[importance.ranking(fused)] = np.arange(1, len(tokens) + 1)
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
                    "score": float(fused[i]),
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
            [i, float(fused[i]), tokens.types[i].value]
            for i in range(len(tokens))
        ],
        force,
    )
    return EXIT_OK


def cmd_build_mask(cfg: RunConfig, prompt: str, r_deg: float, out: Path, force: bool) -> int:
    tokens = tokenize(prompt, cfg.encoder)
    ratios = degradation.map_ratio(r_deg)
    _check_outputs(out, ["mask.json"], force)
    encoder = cfg.build_encoder()
    _, fused = _fused_importance(cfg, encoder, tokens)
    keep = degradation.build_mask(tokens, fused, ratios)
    replaced = np.flatnonzero(~keep).tolist()
    k_content = int(np.count_nonzero(~keep & tokens.content_bits))
    orders = [degradation.type_order(tokens, fused, ttype) for ttype in TokenType]
    ranks = {p: rank for order in orders for rank, p in enumerate(order, 1)}
    _write_json(
        out / "mask.json",
        {
            "prompt": prompt,
            "r_deg": ratios.r_deg,
            "r_content": ratios.r_content,
            "r_ctxagg": ratios.r_ctxagg,
            "k_content": k_content,
            "k_ctxagg": len(replaced) - k_content,
            "replaced_indices": replaced,
            "positions": [
                {
                    "position": i,
                    "token": tokens.texts[i],
                    "type": tokens.types[i].value,
                    "bit": int(keep[i]),
                    "rank_within_type": ranks[i],
                }
                for i in range(len(tokens))
            ],
        },
        force,
    )
    return EXIT_OK


def cmd_sample(cfg: RunConfig, out: Path, force: bool) -> int:
    names = [f"trajectory_{p:03d}.csv" for p in range(len(cfg.prompts))]
    _check_outputs(out, names + ["metadata.json"], force)
    echo = config_echo(cfg)
    try:
        json.dumps(echo, allow_nan=False)
    except ValueError as exc:
        # a config may hold what JSON cannot, e.g. an infinite fusion bound
        raise OutputUnwritableError(f"cannot echo the config in metadata.json: {exc}") from exc
    model = cfg.build_model()
    schedule = cfg.build_schedule()
    encoder = cfg.build_encoder()
    chains = [Chain(tokens, cfg.guidance, cfg.seed) for tokens in cfg.tokens]
    t0 = time.perf_counter()
    runs = sample_batch(
        model, schedule, encoder, chains,
        fusion=cfg.fusion, attention_bias_weight=cfg.attention_bias_weight,
    )
    elapsed = time.perf_counter() - t0
    meta = {"config": echo, "runs": []}
    header = ["step", "sigma"] + [f"x{i}" for i in range(model.d_x)]
    for p, (prompt, run) in enumerate(zip(cfg.prompts, runs)):
        rows = [
            [step, float(run.sigmas[step])] + [float(v) for v in x]
            for step, x in enumerate(run.trajectory)
        ]
        _write_csv(out / names[p], header, rows, force)
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


def _row_norms(g: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of g (B, d), bit for bit np.linalg.norm's:
    each row's (1, d) @ (d, 1) product is the dot product norm takes, which
    an einsum would sum in another order."""
    return np.sqrt((g[:, None, :] @ g[:, :, None])[:, 0, 0])


def cmd_sweep(cfg: RunConfig, grid: list[float], out: Path, force: bool) -> int:
    _check_outputs(out, ["sweep.csv"], force)
    model = cfg.build_model()
    schedule = cfg.build_schedule()
    encoder = cfg.build_encoder()
    base = cfg.guidance
    if not base.mode.uses_degradation:
        base = replace(base, mode=GuidanceMode.CDG, r_deg=1.0)
    reference = GuidanceConfig(mode=GuidanceMode.NONE, guidance_scale=1.0)
    # one config per distinct ratio, shared by its prompts and its repeats
    configs = {r_deg: replace(base, r_deg=r_deg) for r_deg in grid}
    tokens = cfg.tokens
    cells = [(r_deg, p) for r_deg in grid for p in range(len(tokens))]

    # one batch: the unguided reference of each prompt, then the grid
    runs = sample_batch(
        model, schedule, encoder,
        [Chain(t, reference, cfg.seed) for t in tokens]
        + [Chain(tokens[p], configs[r_deg], cfg.seed) for r_deg, p in cells],
        fusion=cfg.fusion, attention_bias_weight=cfg.attention_bias_weight,
    )
    refs, runs = runs[: len(tokens)], runs[len(tokens) :]
    prompt_of = [p for _, p in cells]
    # how many positions each cell's mask replaces, and how many of them are content tokens
    replaced = ~np.array([run.masks[0] for run in runs])
    counts = np.count_nonzero(replaced, axis=1)
    content = np.array([t.content_bits for t in tokens])[prompt_of]
    k_content = np.count_nonzero(replaced & content, axis=1)
    gaps = np.array([run.final for run in runs]) - np.array([ref.final for ref in refs])[prompt_of]
    rows = list(zip(
        [float(r_deg) for r_deg, _ in cells], prompt_of, [cfg.prompts[p] for p in prompt_of],
        counts.tolist(), k_content.tolist(), (counts - k_content).tolist(),
        [run.wpr_call_count for run in runs], _row_norms(gaps).tolist(),
    ))
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
    _check_outputs(out, ["geometry.csv", "geometry.json"], force)
    model = cfg.build_model()
    schedule = cfg.build_schedule()
    encoder = cfg.build_encoder()
    g = cfg.guidance
    report = geometry.run_geometry_sweep(
        model, schedule, encoder, cfg.tokens,
        g.r_deg if g.mode.uses_degradation else 1.0, g.lambda_block,
        k=cfg.geometry_k, seed=cfg.seed, fusion=cfg.fusion,
        attention_bias_weight=cfg.attention_bias_weight,
    )
    header = ["sigma", "method", "decoupling_mean", "interference_mean",
              "num_valid_prompts", "decoupling_pooled", "interference_pooled"]
    rows = [[rec[k] for k in header] for rec in report.records]
    detail_text = _geometry_json(out / "geometry.json", report.detail)
    _write_csv(out / "geometry.csv", header, rows, force)
    _write_text(out / "geometry.json", detail_text, force)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call.

    The shared options follow the subcommand: `cdglab sample --config c.json`.
    """
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", type=Path, help="path to the run-config JSON")
    shared.add_argument("--out", type=Path, help="output directory (default: config out_dir)")
    shared.add_argument("--seed", type=int, help="override the config seed")
    shared.add_argument("--force", action="store_true", help="overwrite existing outputs")

    parser = argparse.ArgumentParser(prog="cdglab")
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
        cfg = replace(cfg, seed=args.seed)
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
        grid = DEFAULT_SWEEP_GRID if args.grid is None else _parse_grid(args.grid)
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
    except (ConfigError, PromptTooLongError) as exc:
        # a config's prompts are checked at load, so a prompt too long here is --prompt's
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CdgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
