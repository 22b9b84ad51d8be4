"""The benchmark workloads: set-up, one entry-point call, output checks.

Every workload drives a public entry point only: `cdglab.cli.main`
in-process for `sweep` and `diagnose`, `cdglab.sample` for `per_step`.
Entry points are looked up on their module at each call, so the tracer's
patches take effect without the workloads knowing about them.

A workload's life in one run:
  setup(config_path)   load the config and build model, schedule, encoder
  next_input()         the next generated input (outside the timer)
  call(input)          the timed entry-point call
  output(input, raw)   parse what the call produced (outside the timer)
  check(output)        a list of problems; empty means the output is correct
  items(output)        units of work the call completed
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

import inputs

# Float outputs must match the recorded reference at rounding level; counts
# and masks must match exactly.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-10
REFERENCE_SEED = 0
SPOT_PROMPTS = 3


class CallFailed(Exception):
    """The entry point returned a failure status instead of raising."""


def import_cdglab(root: Path):
    """Import cdglab from `root/src`, never from an installed copy."""
    init = root / "src" / "cdglab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from the root of a cdglab checkout")
    sys.path.insert(0, str(root / "src"))
    import cdglab

    if Path(cdglab.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported cdglab from {cdglab.__file__}, not {init}")
    return cdglab


class Workload:
    name = ""
    unit = ""
    # kernel runs between calls; long calls can afford a steadier estimate
    calibration_repeats = 5
    # peak RSS is read after each of the first rss_calls calls only, so it
    # does not grow with how many calls a faster program fits in the run
    rss_calls = 10

    def __init__(self, out_dir: Path, seed: int):
        self.out_dir = out_dir
        self.stream = inputs.PromptStream(self.name, seed)
        self.seed = seed

    def setup(self, config_path: Path) -> None:
        from cdglab.config import load_config

        self.config = load_config(config_path)
        self.model = self.config.build_model()
        self.schedule = self.config.build_schedule()
        self.encoder = self.config.build_encoder()


class CliWorkload(Workload):
    """Repeated in-process `cdglab <command>` calls, one generated config each."""

    command = ""

    def __init__(self, out_dir: Path, seed: int):
        super().__init__(out_dir, seed)
        self.count = 0
        self.cli_out = out_dir / "cli"

    def setup_config(self) -> dict:
        return self.make_config(inputs.PromptStream(f"{self.name}-setup", self.seed))

    def next_input(self) -> Path:
        self.count += 1
        path = self.out_dir / "inputs" / f"{self.command}_{self.count:05d}.json"
        return inputs.write_config(path, self.make_config(self.stream))

    def call(self, config_path: Path) -> int:
        from cdglab import cli

        rc = cli.main([self.command, "--config", str(config_path),
                       "--out", str(self.cli_out), "--force"])
        if rc != 0:
            raise CallFailed(f"cdglab {self.command} exited {rc}")
        return rc

    def _read_csv(self, name: str) -> list[dict]:
        with open(self.cli_out / name, newline="") as fh:
            return list(csv.DictReader(fh))


class Sweep(CliWorkload):
    name = "sweep"
    command = "sweep"
    unit = "grid cell"

    def make_config(self, stream):
        return inputs.sweep_config(stream)

    def output(self, config_path, raw) -> list[dict]:
        return [
            {
                "r_deg": float(r["r_deg"]),
                "prompt_index": int(r["prompt_index"]),
                "replaced_count": int(r["replaced_count"]),
                "wpr_call_count": int(r["wpr_call_count"]),
                "final_distance": float(r["final_distance_to_conditional"]),
            }
            for r in self._read_csv("sweep.csv")
        ]

    def check(self, rows) -> list[str]:
        problems = []
        if not rows:
            problems.append("sweep.csv has no rows")
        last_replaced: dict[int, tuple[float, int]] = {}
        for r in sorted(rows, key=lambda r: (r["prompt_index"], r["r_deg"])):
            expected = 0 if r["r_deg"] == 1.0 else 1
            if r["wpr_call_count"] != expected:
                problems.append(f"wpr_call_count {r['wpr_call_count']} at R={r['r_deg']}")
            if not math.isfinite(r["final_distance"]):
                problems.append(f"non-finite distance at R={r['r_deg']}")
            prev = last_replaced.get(r["prompt_index"])
            if prev is not None and r["replaced_count"] < prev[1]:
                problems.append(
                    f"replaced_count falls from {prev[1]} at R={prev[0]} "
                    f"to {r['replaced_count']} at R={r['r_deg']}"
                )
            last_replaced[r["prompt_index"]] = (r["r_deg"], r["replaced_count"])
        return problems

    def items(self, rows) -> int:
        return len(rows)

    def corrupt(self, rows) -> None:
        rows[0]["final_distance"] = math.nan

    def summary(self, rows) -> dict:
        return {key: [r[key] for r in rows]
                for key in ("replaced_count", "wpr_call_count", "final_distance")}


class Diagnose(CliWorkload):
    name = "diagnose"
    command = "diagnose"
    unit = "(sigma, prompt) pair"
    METRICS = ("decoupling_mean", "interference_mean",
               "decoupling_pooled", "interference_pooled")

    def make_config(self, stream):
        return inputs.diagnose_config(stream)

    def output(self, config_path, raw) -> dict:
        rows = self._read_csv("geometry.csv")
        for r in rows:
            r["sigma"] = float(r["sigma"])
            r["num_valid_prompts"] = int(r["num_valid_prompts"])
            for key in self.METRICS:
                # the CLI writes an undefined metric as an empty field
                r[key] = float(r[key]) if r[key] else None
        prompts = json.loads(config_path.read_text())["prompts"]
        return {"prompts": len(prompts), "rows": rows}

    def check(self, out) -> list[str]:
        problems = []
        if not out["rows"]:
            problems.append("geometry.csv has no rows")
        for r in out["rows"]:
            where = f"sigma={r['sigma']} method={r['method']}"
            for key in self.METRICS:
                v = r[key]
                if not isinstance(v, float) or not 0.0 <= v <= 1.0:
                    problems.append(f"{key}={v!r} outside [0, 1] at {where}")
            if not 0 <= r["num_valid_prompts"] <= out["prompts"]:
                problems.append(f"num_valid_prompts={r['num_valid_prompts']} at {where}")
        return problems

    def items(self, out) -> int:
        sigmas = {r["sigma"] for r in out["rows"]}
        return len(sigmas) * out["prompts"]

    def corrupt(self, out) -> None:
        out["rows"][0]["decoupling_mean"] = 1.5

    def summary(self, out) -> dict:
        keys = self.METRICS + ("num_valid_prompts",)
        return {key: [r[key] for r in out["rows"]] for key in keys}


class PerStep(Workload):
    """Library `sample()` chains, each on a new prompt, masks rebuilt every step."""

    name = "per_step"
    unit = "chain"
    calibration_repeats = 1
    rss_calls = 1000

    def setup_config(self) -> dict:
        return inputs.per_step_config()

    def next_input(self) -> dict:
        return inputs.per_step_chain(self.stream)

    def call(self, chain: dict):
        import cdglab

        cfg = self.config
        tokens = cdglab.tokenize(chain["prompt"], cfg.encoder)
        guidance = cdglab.GuidanceConfig(
            mode=cdglab.GuidanceMode(chain["mode"]), guidance_scale=3.0,
            r_deg=chain["r_deg"], reuse_first_step_mask=False,
        )
        return cdglab.sample(
            self.model, self.schedule, self.encoder, tokens, guidance, chain["seed"],
            fusion=cfg.fusion, attention_bias_weight=cfg.attention_bias_weight,
        )

    def output(self, chain, run):
        return run

    def check(self, run) -> list[str]:
        problems = []
        steps = len(run.sigmas) - 1
        if run.wpr_call_count != steps:
            problems.append(f"wpr_call_count {run.wpr_call_count} != steps {steps}")
        if len(run.trajectory) != steps + 1:
            problems.append(f"{len(run.trajectory)} latents for {steps} steps")
        if not np.isfinite(np.asarray(run.trajectory)).all():
            problems.append("non-finite latent")
        return problems

    def items(self, run) -> int:
        return 1

    def corrupt(self, run) -> None:
        run.trajectory[-1] = run.trajectory[-1] * math.nan

    def summary(self, runs) -> dict:
        return {
            "wpr_call_count": [r.wpr_call_count for r in runs],
            "final": [[float(v) for v in r.final] for r in runs],
        }


WORKLOADS = {w.name: w for w in (Sweep, PerStep, Diagnose)}
PER_STEP_REFERENCE_CHAINS = 6


def reference_summary(name: str, out_dir: Path, config_path: Path) -> dict:
    """Outputs for the default seed's first input(s), as plain numbers.

    Runs on its own input stream, so it does not change which inputs the
    timed loop sees.
    """
    ref = WORKLOADS[name](out_dir / "reference", REFERENCE_SEED)
    ref.setup(config_path)
    if isinstance(ref, PerStep):
        return ref.summary([ref.call(ref.next_input())
                            for _ in range(PER_STEP_REFERENCE_CHAINS)])
    path = ref.next_input()
    return ref.summary(ref.output(path, ref.call(path)))


def compare(expected, actual, where: str = "") -> list[str]:
    """Differences between two summaries beyond rounding level."""
    if isinstance(expected, dict):
        if set(expected) != set(actual):
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [p for k in expected for p in compare(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in compare(e, a, f"{where}[{i}]")]
    if isinstance(expected, float) or isinstance(actual, float):
        if not (isinstance(actual, (int, float)) and math.isclose(
                expected, actual, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL)):
            return [f"{where}: {actual!r} != {expected!r}"]
        return []
    return [] if expected == actual else [f"{where}: {actual!r} != {expected!r}"]


def spot_checks(workload: Workload, seed: int) -> list[str]:
    """Reduction identities on fresh prompts: CDG at R=2 == CFG, w=1 == NONE."""
    import cdglab

    stream = inputs.PromptStream(f"spot-{workload.name}", seed)
    mode = cdglab.GuidanceMode
    pairs = (
        (cdglab.GuidanceConfig(mode=mode.CDG, guidance_scale=3.0, r_deg=2.0),
         cdglab.GuidanceConfig(mode=mode.CFG, guidance_scale=3.0)),
        (cdglab.GuidanceConfig(mode=mode.CDG, guidance_scale=1.0, r_deg=0.6,
                               reuse_first_step_mask=False),
         cdglab.GuidanceConfig(mode=mode.NONE, guidance_scale=1.0)),
        (cdglab.GuidanceConfig(mode=mode.CFG, guidance_scale=1.0),
         cdglab.GuidanceConfig(mode=mode.NONE, guidance_scale=1.0)),
    )
    problems = []
    for _ in range(SPOT_PROMPTS):
        prompt, chain_seed = stream.prompt(), stream.sampler_seed()
        tokens = cdglab.tokenize(prompt, workload.config.encoder)
        for a, b in pairs:
            finals = [
                cdglab.sample(workload.model, workload.schedule, workload.encoder,
                              tokens, g, chain_seed).final
                for g in (a, b)
            ]
            gap = float(np.abs(finals[0] - finals[1]).max())
            if not gap < 1e-12:
                problems.append(
                    f"{a.mode.value} w={a.guidance_scale} R={a.r_deg} differs from "
                    f"{b.mode.value} w={b.guidance_scale} by {gap:.3g} on {prompt!r}"
                )
    return problems
