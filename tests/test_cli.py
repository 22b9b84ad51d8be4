"""CLI subcommands: exit codes, file schemas, and cross-module consistency."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdglab import cli, geometry
from cdglab.cli import _write_json, main
from cdglab.config import RunConfig, config_echo, parse_config
from cdglab.diffusion import sample
from cdglab.encoder import tokenize
from cdglab.errors import NumericalError
from cdglab.guidance import GuidanceConfig, GuidanceMode

BASE_CONFIG = {
    "encoder": {"seq_len": 16, "seed": 10},
    "model": {"n_components": 4, "d_x": 8, "d_c": 8, "seed": 0},
    "schedule": {"steps": 12, "sigma_max": 10.0, "sigma_min": 0.01},
    "guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 1.0},
    "prompts": ["a man is cooking", "a cat sits on the mat"],
    "seed": 0,
}


@pytest.fixture
def config_file(tmp_path) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return path


def _read_csv(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["rank-tokens", "--config", str(tmp_path / "nope.json"),
                     "--prompt", "hi", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["sample", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unknown_config_key(self, tmp_path):
        doc = dict(BASE_CONFIG, bogus=1)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["sample", "--config", str(path)]) == 2

    def test_refuses_overwrite_without_force(self, config_file, tmp_path):
        out = str(tmp_path / "out")
        args = ["rank-tokens", "--config", str(config_file), "--prompt", "hi",
                "--out", out]
        assert main(args) == 0
        assert main(args) == 2
        assert main(args + ["--force"]) == 0

    def test_invalid_r_deg(self, config_file, tmp_path):
        code = main(["build-mask", "--config", str(config_file), "--prompt", "hi",
                     "--r-deg", "3.0", "--out", str(tmp_path / "out")])
        assert code == 2

    def test_bad_grid(self, config_file, tmp_path):
        code = main(["sweep", "--config", str(config_file), "--grid", "a,b",
                     "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("grid", ["", " ", ","])
    def test_empty_grid(self, config_file, tmp_path, capsys, grid):
        # an empty --grid is a usage error, not the default grid
        code = main(["sweep", "--config", str(config_file), "--grid", grid,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error: empty sweep grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["build-mask", "--prompt", "hi", "--r-deg=nan"],
            ["sweep", "--grid=0,3"],
            ["sweep", "--grid=nan"],
            ["sweep", "--grid=-0.5"],
            ["sweep", "--grid=0,2.5"],
        ],
        ids=lambda args: args[-1],
    )
    def test_out_of_range_ratio_flag(self, config_file, tmp_path, monkeypatch, args):
        def no_sampling(*_args, **_kwargs):
            raise AssertionError("sampled before the ratio was checked")

        monkeypatch.setattr("cdglab.cli.sample_batch", no_sampling)
        code = main(args + ["--config", str(config_file), "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scale", [float("inf"), float("nan")])
    def test_non_finite_guidance_scale(self, tmp_path, scale):
        # Python's json reads the non-standard Infinity and NaN literals
        doc = dict(BASE_CONFIG, guidance={"mode": "cfg", "guidance_scale": scale})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["sample", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), "a", True])
    def test_bad_attention_bias_weight(self, tmp_path, weight):
        doc = dict(BASE_CONFIG, attention_bias_weight=weight)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["sample", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_overflowing_attention_bias_is_runtime_error(self, tmp_path, capsys):
        doc = dict(BASE_CONFIG, attention_bias_weight=1e6,
                   guidance={"mode": "cdg", "guidance_scale": 3.0, "r_deg": 0.5})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with np.errstate(all="ignore"):
            code = main(["sample", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_non_finite_latent_exits_1(self, tmp_path, capsys):
        doc = dict(BASE_CONFIG, guidance={"mode": "cfg", "guidance_scale": 1e300})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with np.errstate(all="ignore"):
            code = main(["sample", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "non-finite latent at step" in err and "Traceback" not in err
        assert not (tmp_path / "o" / "metadata.json").exists()

    def test_diagnose_one_prompt_exits_2_before_building(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_build(self):
            raise AssertionError("built the model before checking the prompts")

        monkeypatch.setattr(RunConfig, "build_model", no_build)
        doc = dict(BASE_CONFIG, prompts=["a man is cooking"])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code = main(["diagnose", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "at least 2 prompts" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "command, override",
        [
            ("sample", {"guidance": {"mode": "cfg", "guidance_scale": 1e300}}),
            ("sample", {"attention_bias_weight": 1e6}),
            ("diagnose", {"attention_bias_weight": 1e6}),
        ],
        ids=["huge-scale", "huge-bias-sample", "huge-bias-diagnose"],
    )
    def test_runtime_error_prints_one_line(self, tmp_path, capsys, command, override):
        doc = dict(BASE_CONFIG, **override)
        doc["guidance"] = override.get(
            "guidance", {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 0.5}
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": "x"},
            {"seed": 1.5},
            {"seed": -1},
            {"model": {"d_x": "a"}},
            {"guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": "a"}},
            {"guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 2.5}},
            {"schedule": {"steps": 0}},
            {"schedule": {"sigma_min": 20.0, "sigma_max": 10.0}},
            {"guidance": {"mode": "cfg", "lambda_block": 2}},
            {"encoder": {"n_heads": 0}},
            {"prompts": []},
            {"out_dir": 5},
            {"geometry_k": 0},
        ],
        ids=lambda override: json.dumps(override),
    )
    def test_bad_config_exits_2(self, tmp_path, capsys, override):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, **override)))
        code = main(["sample", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "before, after",
        [
            (["--seed", "5"], ["--config", "CONFIG"]),
            (["--config", "CONFIG"], []),
            (["--force"], ["--config", "CONFIG"]),
        ],
        ids=["seed", "config", "force"],
    )
    def test_option_before_subcommand_is_usage_error(
        self, config_file, tmp_path, capsys, before, after
    ):
        # the shared options belong to the subcommands; one given before the
        # subcommand used to be dropped silently
        out = tmp_path / "o"
        args = before + ["sample"] + after + ["--out", str(out)]
        args = [str(config_file) if a == "CONFIG" else a for a in args]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()

    def test_options_after_subcommand_apply(self, config_file, tmp_path):
        out = tmp_path / "o"
        assert main(["sample", "--config", str(config_file), "--seed", "5",
                     "--out", str(out)]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["config"]["seed"] == 5

    def test_calls_share_one_parser_without_leaking_options(self, config_file, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        out = tmp_path / "o"
        first = ["sample", "--config", str(config_file), "--out", str(out)]
        assert main(first + ["--force", "--seed", "3"]) == 0
        assert json.loads((out / "metadata.json").read_text())["config"]["seed"] == 3
        # neither --force nor --seed carries over to the next call
        assert main(first) == 2
        fresh = tmp_path / "fresh"
        assert main(["sample", "--config", str(config_file), "--out", str(fresh)]) == 0
        meta = json.loads((fresh / "metadata.json").read_text())
        assert meta["config"]["seed"] == BASE_CONFIG["seed"]

    @pytest.mark.parametrize(
        "command", [["sample"], ["sweep"], ["diagnose"], ["rank-tokens"], ["build-mask"]],
        ids=lambda command: command[0],
    )
    def test_too_long_prompt_exits_2(self, tmp_path, capsys, command):
        # seq_len 16 holds 14 words; a config prompt is checked at load, a
        # --prompt when it is tokenized, both before any output is made
        long_prompt = " ".join(["word"] * 15)
        doc = dict(BASE_CONFIG)
        if command[0] in ("rank-tokens", "build-mask"):
            command = command + ["--prompt", long_prompt]
        else:
            doc["prompts"] = ["a man is cooking", long_prompt]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(command + ["--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "15 words, max 14" in err
        assert not out.exists()

    def test_negative_seed_override_exits_2(self, config_file, tmp_path):
        code = main(["sample", "--config", str(config_file), "--seed", "-1",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_json_output_is_strict(self, tmp_path):
        with pytest.raises(NumericalError):
            _write_json(tmp_path / "m.json", {"value": float("nan")}, force=False)
        assert not (tmp_path / "m.json").exists()

    # a directory without write permission is not tested: root may write it
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_unwritable_out_exits_2(self, config_file, tmp_path, capsys, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        code = main(["rank-tokens", "--config", str(config_file), "--prompt", "hi",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert str(out) in err

    def test_sample_on_config_it_cannot_echo_exits_2(self, tmp_path, capsys):
        # an infinite fusion bound is a valid config but no JSON echo; sample
        # used to write its trajectories and then fail on metadata.json
        doc = dict(BASE_CONFIG, fusion={"enabled": True, "v_min": 0, "v_max": float("inf")})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["sample", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not out.exists()

    # each command's last-written output, and what computes it
    @pytest.mark.parametrize(
        "command, last_output, compute",
        [
            (["rank-tokens", "--prompt", "hi"], "rankings.csv",
             "cdglab.importance.stationary_scores"),
            (["build-mask", "--prompt", "hi"], "mask.json",
             "cdglab.importance.stationary_scores"),
            (["sample"], "metadata.json", "cdglab.cli.sample_batch"),
            (["sweep"], "sweep.csv", "cdglab.cli.sample_batch"),
            (["diagnose"], "geometry.json", "cdglab.geometry.run_geometry_sweep"),
        ],
        ids=["rank-tokens", "build-mask", "sample", "sweep", "diagnose"],
    )
    @pytest.mark.parametrize("blocked", ["exists", "under-file"])
    def test_out_checked_before_compute(
        self, config_file, tmp_path, capsys, monkeypatch, command, last_output, compute,
        blocked,
    ):
        def no_compute(*_args, **_kwargs):
            raise AssertionError("computed before checking --out")

        monkeypatch.setattr(compute, no_compute)
        if blocked == "exists":
            out = tmp_path / "out"
            out.mkdir()
            (out / last_output).write_text("kept")
        else:
            (tmp_path / "blocker").write_text("")
            out = tmp_path / "blocker" / "sub"
        code = main(command + ["--config", str(config_file), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert str(out) in err
        if blocked == "exists":
            assert sorted(p.name for p in out.iterdir()) == [last_output]
            assert (out / last_output).read_text() == "kept"

    @pytest.mark.parametrize(
        "text",
        [b'{"seed": "\xff"}', b"[" * 100_000 + b"]" * 100_000],
        ids=["not-utf8", "deeply-nested"],
    )
    def test_unreadable_config_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_bytes(text)
        code = main(["sample", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_unallocatable_size_exits_1(self, tmp_path, capsys):
        # 10**13 embeddings of 32 floats are ~2 PiB, past any address space,
        # so numpy refuses them at once
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, encoder={"vocab_size": 10**13})))
        code = main(["rank-tokens", "--config", str(path), "--prompt", "hi",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err


class TestRankTokens:
    def test_empty_prompt(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["rank-tokens", "--config", str(config_file), "--prompt", "",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "rankings.json").read_text())
        assert all(t["type"] == "ctx_agg" for t in doc["tokens"])
        assert sorted(t["rank"] for t in doc["tokens"]) == list(range(1, 17))

    def test_content_tokens_outrank_padding(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["rank-tokens", "--config", str(config_file),
                     "--prompt", "a man is cooking minecraft style",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "rankings.json").read_text())
        top = sorted(doc["tokens"], key=lambda t: t["rank"])[:3]
        assert any(t["type"] == "content" for t in top)
        rows = _read_csv(out / "rankings.csv")
        assert len(rows) == 16 and set(rows[0]) == {"position", "score", "type"}


class TestBuildMask:
    def test_boundary_zeros_content_positions(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["build-mask", "--config", str(config_file),
                     "--prompt", "a man is cooking", "--r-deg", "1.0",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "mask.json").read_text())
        for pos in doc["positions"]:
            assert pos["bit"] == (0 if pos["type"] == "content" else 1)

    def test_zero_ratio_all_ones(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["build-mask", "--config", str(config_file),
                     "--prompt", "a man is cooking", "--r-deg", "0.0",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "mask.json").read_text())
        assert all(pos["bit"] == 1 for pos in doc["positions"])
        assert doc["replaced_indices"] == []

    def test_matches_degradation_module_example(self, tmp_path):
        doc = dict(BASE_CONFIG, encoder={"seq_len": 8, "seed": 10})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["build-mask", "--config", str(path),
                     "--prompt", "a man is cooking", "--r-deg", "1.25",
                     "--out", str(out)]) == 0
        mask = json.loads((out / "mask.json").read_text())
        assert mask["k_content"] == 4 and mask["k_ctxagg"] == 1
        assert len(mask["replaced_indices"]) == 5


class TestSample:
    def test_outputs_and_call_counts(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["sample", "--config", str(config_file), "--out", str(out)]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert len(meta["runs"]) == 2
        # r_deg=1.0 boundary: no importance computation in any run
        assert all(r["wpr_call_count"] == 0 for r in meta["runs"])
        rows = _read_csv(out / "trajectory_000.csv")
        assert len(rows) == BASE_CONFIG["schedule"]["steps"] + 1

    def test_cdg_full_ratio_equals_cfg(self, tmp_path):
        finals = {}
        for name, guidance in (
            ("cfg", {"mode": "cfg", "guidance_scale": 3.0}),
            ("cdg", {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 2.0}),
        ):
            doc = dict(BASE_CONFIG, guidance=guidance)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / name
            assert main(["sample", "--config", str(path), "--out", str(out)]) == 0
            meta = json.loads((out / "metadata.json").read_text())
            finals[name] = [r["final"] for r in meta["runs"]]
        assert finals["cfg"] == finals["cdg"]

    def test_unit_scale_matches_mode_none(self, tmp_path):
        finals = {}
        for name, guidance in (
            ("none", {"mode": "none", "guidance_scale": 1.0}),
            ("cfg1", {"mode": "cfg", "guidance_scale": 1.0}),
        ):
            doc = dict(BASE_CONFIG, guidance=guidance)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / name
            assert main(["sample", "--config", str(path), "--out", str(out)]) == 0
            meta = json.loads((out / "metadata.json").read_text())
            finals[name] = [r["final"] for r in meta["runs"]]
        assert finals["none"] == finals["cfg1"]


class TestSweep:
    def test_small_grid(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config_file), "--grid", "0,1,2",
                     "--out", str(out)]) == 0
        rows = _read_csv(out / "sweep.csv")
        assert len(rows) == 3 * len(BASE_CONFIG["prompts"])
        by_prompt: dict[str, list[dict]] = {}
        for row in rows:
            by_prompt.setdefault(row["prompt_index"], []).append(row)
        for series in by_prompt.values():
            counts = [int(r["replaced_count"]) for r in series]
            assert counts == sorted(counts)  # nestedness
            zero_row = next(r for r in series if float(r["r_deg"]) == 0.0)
            assert float(zero_row["final_distance_to_conditional"]) == 0.0

    def test_row_count_on_default_grid(self, tmp_path):
        doc = dict(
            BASE_CONFIG,
            prompts=[f"prompt number {i}" for i in range(8)],
            schedule={"steps": 4, "sigma_max": 10.0, "sigma_min": 0.01},
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        rows = _read_csv(out / "sweep.csv")
        assert len(rows) == 21 * 8  # default grid 0.0..2.0 step 0.1


def _per_chain_sweep_rows(doc: dict, grid: list[float]) -> list[dict]:
    """sweep.csv rows as one sample() call per chain computes them."""
    cfg = parse_config(doc)
    model, schedule = cfg.build_model(), cfg.build_schedule()
    encoder = cfg.build_encoder()
    reference = GuidanceConfig(mode=GuidanceMode.NONE, guidance_scale=1.0)
    kwargs = {"fusion": cfg.fusion, "attention_bias_weight": cfg.attention_bias_weight}
    rows = []
    for r_deg in grid:
        for p, prompt in enumerate(cfg.prompts):
            tokens = tokenize(prompt, cfg.encoder)
            ref = sample(model, schedule, encoder, tokens, reference, cfg.seed, **kwargs)
            run = sample(model, schedule, encoder, tokens,
                         replace(cfg.guidance, r_deg=r_deg), cfg.seed, **kwargs)
            mask = run.masks_used[0]
            rows.append({
                "r_deg": repr(float(r_deg)),
                "prompt_index": str(p),
                "prompt": prompt,
                "replaced_count": str(len(mask.replaced_indices)),
                "k_content": str(mask.k_content),
                "k_ctxagg": str(mask.k_ctxagg),
                "wpr_call_count": str(run.wpr_call_count),
                "final_distance_to_conditional": repr(
                    float(np.linalg.norm(run.final - ref.final))
                ),
            })
    return rows


@pytest.mark.parametrize("reuse", [True, False])
def test_sweep_matches_per_chain_loop(tmp_path, reuse):
    doc = dict(
        BASE_CONFIG,
        prompts=["a man is cooking", "a cat sits on the mat", ""],
        guidance={"mode": "cdg", "guidance_scale": 3.0, "r_deg": 0.5,
                  "reuse_first_step_mask": reuse},
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    grid = [0.0, 0.3, 0.5, 1.0, 1.4, 2.0]
    assert main(["sweep", "--config", str(path), "--out", str(out),
                 "--grid", ",".join(map(str, grid))]) == 0
    assert _read_csv(out / "sweep.csv") == _per_chain_sweep_rows(doc, grid)


@pytest.mark.parametrize(
    "guidance",
    [
        {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 0.5},
        {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 0.7, "reuse_first_step_mask": False},
        {"mode": "cfg_star", "guidance_scale": 2.0, "r_deg": 1.3,
         "reuse_first_step_mask": False},
        {"mode": "cfg", "guidance_scale": 3.0},
    ],
    ids=lambda g: f"{g['mode']}-{g.get('r_deg')}",
)
def test_sample_matches_per_prompt_loop(tmp_path, guidance):
    doc = dict(
        BASE_CONFIG, guidance=guidance,
        prompts=["a man is cooking", "a cat sits on the mat", "", "a man is cooking"],
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["sample", "--config", str(path), "--out", str(out)]) == 0

    cfg = parse_config(doc)
    model, schedule = cfg.build_model(), cfg.build_schedule()
    encoder = cfg.build_encoder()
    header = ",".join(["step", "sigma"] + [f"x{i}" for i in range(model.d_x)])
    runs = []
    for p, prompt in enumerate(cfg.prompts):
        run = sample(model, schedule, encoder, tokenize(prompt, cfg.encoder),
                     cfg.guidance, cfg.seed, fusion=cfg.fusion,
                     attention_bias_weight=cfg.attention_bias_weight)
        lines = [header] + [
            ",".join([str(step), repr(float(run.sigmas[step]))]
                     + [repr(float(v)) for v in x])
            for step, x in enumerate(run.trajectory)
        ]
        assert (out / f"trajectory_{p:03d}.csv").read_text() == "\n".join(lines) + "\n"
        runs.append({"prompt": prompt, "prompt_index": p,
                     "wpr_call_count": run.wpr_call_count,
                     "final": [float(v) for v in run.final]})
    meta = {"config": config_echo(cfg), "runs": runs}
    expected = json.dumps(meta, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert (out / "metadata.json").read_text() == expected
    assert sorted(f.name for f in out.iterdir()) == sorted(
        ["metadata.json"] + [f"trajectory_{p:03d}.csv" for p in range(len(cfg.prompts))]
    )


class TestDiagnose:
    def test_schema_and_ranges(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(config_file), "--out", str(out)]) == 0
        rows = _read_csv(out / "geometry.csv")
        assert len(rows) == 2 * BASE_CONFIG["schedule"]["steps"]
        for row in rows:
            assert row["method"] in ("cfg", "cdg")
            for key in ("decoupling_mean", "interference_mean"):
                if row[key] not in ("", "None"):
                    assert 0.0 <= float(row[key]) <= 1.0
        detail = json.loads((out / "geometry.json").read_text())
        assert detail["detail"]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NOTES = st.text() | st.text(alphabet='"\\\n\t\x00é☃\U0001f600a ')
_DETAIL = st.fixed_dictionaries({
    "sigma": _FINITE | _FINITE.map(np.float64),
    "method": _NOTES,
    "prompt_index": st.integers(),
    "decoupling": st.none() | _FINITE,
    "interference": st.none() | _FINITE,
    "note": _NOTES,
})


class TestGeometryJson:
    """geometry.json's formatter against json.dumps on the fixed detail schema."""

    @settings(max_examples=200, deadline=None)
    @given(detail=st.lists(_DETAIL, max_size=4))
    @example(detail=[])
    @example(detail=[{
        "sigma": np.float64(10.0), "method": "cdg", "prompt_index": 2**70,
        "decoupling": -0.0, "interference": 5e-324, "note": 'a "q" \\ \n é ☃',
    }])
    @example(detail=[{
        "sigma": 1e308, "method": "cfg", "prompt_index": -1,
        "decoupling": None, "interference": None, "note": "zero delta",
    }])
    def test_same_bytes_as_json_dumps(self, detail):
        expected = json.dumps(
            {"detail": detail}, indent=2, sort_keys=True, allow_nan=False
        ) + "\n"
        assert cli._geometry_json(Path("geometry.json"), detail) == expected

    @pytest.mark.parametrize("field", ["sigma", "decoupling", "interference"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_before_any_file(
        self, config_file, tmp_path, monkeypatch, field, bad
    ):
        sweep = geometry.run_geometry_sweep

        def spoiled(*args, **kwargs):
            report = sweep(*args, **kwargs)
            report.detail[-1][field] = bad
            return report

        monkeypatch.setattr(geometry, "run_geometry_sweep", spoiled)
        out = tmp_path / "out"
        with pytest.raises(NumericalError, match="not JSON compliant"):
            cli.run(["diagnose", "--config", str(config_file), "--out", str(out)])
        # neither geometry file is written, nor the output directory made
        assert not out.exists()


def test_artifacts_identical_across_blas_thread_counts(config_file, tmp_path):
    """Fresh interpreters with 1 and 2 BLAS threads write the same bytes."""
    import cdglab

    src = str(Path(cdglab.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        for command in ("diagnose", "sample"):
            out = tmp_path / f"{command}_{threads}"
            subprocess.run(
                [sys.executable, "-m", "cdglab.cli", command,
                 "--config", str(config_file), "--out", str(out)],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs[command, threads] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            }
    for command in ("diagnose", "sample"):
        assert outputs[command, "1"], command
        assert outputs[command, "1"] == outputs[command, "2"], command
