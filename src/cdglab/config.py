"""Run configuration: one JSON document drives every CLI command."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .diffusion import GmmConditionalModel, SigmaSchedule
from .encoder import EncoderParams, ToyTextEncoder
from .errors import CdgError, ConfigError
from .guidance import GuidanceConfig, GuidanceMode
from .importance import FusionConfig


@dataclass(frozen=True)
class ModelConfig:
    n_components: int = 4
    d_x: int = 8
    d_c: int = 8
    seed: int = 0
    spread_min: float = 0.3
    spread_max: float = 1.0


@dataclass(frozen=True)
class ScheduleConfig:
    steps: int = 28
    sigma_max: float = 10.0
    sigma_min: float = 0.01


@dataclass
class RunConfig:
    encoder: EncoderParams = field(default_factory=EncoderParams)
    model: ModelConfig = field(default_factory=ModelConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    guidance: GuidanceConfig = field(
        default_factory=lambda: GuidanceConfig(
            mode=GuidanceMode.CDG, guidance_scale=3.0, r_deg=1.0
        )
    )
    prompts: list[str] = field(default_factory=lambda: ["a man is cooking"])
    seed: int = 0
    out_dir: str = "runs/out"
    fusion: FusionConfig = field(default_factory=FusionConfig)
    geometry_k: int | None = None
    attention_bias_weight: float = 0.1

    def build_encoder(self) -> ToyTextEncoder:
        return ToyTextEncoder(self.encoder)

    def build_model(self) -> GmmConditionalModel:
        m = self.model
        return GmmConditionalModel.random(
            m.n_components, m.d_x, m.d_c, seed=m.seed,
            spread_range=(m.spread_min, m.spread_max),
        )

    def build_schedule(self) -> SigmaSchedule:
        s = self.schedule
        return SigmaSchedule.log_spaced(s.steps, s.sigma_max, s.sigma_min)


def _build(cls, data: dict, section: str):
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section}' must be an object")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"bad field in section '{section}': {exc}") from exc
    except CdgError as exc:
        raise ConfigError(f"invalid section '{section}': {exc}") from exc


def _parse_guidance(data: dict) -> GuidanceConfig:
    if not isinstance(data, dict):
        raise ConfigError("section 'guidance' must be an object")
    data = dict(data)
    mode = data.pop("mode", "cfg")
    try:
        data["mode"] = GuidanceMode(mode)
    except ValueError as exc:
        raise ConfigError(f"unknown guidance mode '{mode}'") from exc
    return _build(GuidanceConfig, data, "guidance")


def parse_config(doc: dict, base_dir: Path | None = None) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    doc = dict(doc)
    kwargs: dict = {}
    if "encoder" in doc:
        kwargs["encoder"] = _build(EncoderParams, doc.pop("encoder"), "encoder")
    if "model" in doc:
        kwargs["model"] = _build(ModelConfig, doc.pop("model"), "model")
    if "schedule" in doc:
        kwargs["schedule"] = _build(ScheduleConfig, doc.pop("schedule"), "schedule")
    if "guidance" in doc:
        kwargs["guidance"] = _parse_guidance(doc.pop("guidance"))
    if "fusion" in doc:
        kwargs["fusion"] = _build(FusionConfig, doc.pop("fusion"), "fusion")
    if "prompts_file" in doc:
        path = Path(doc.pop("prompts_file"))
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        if not path.is_file():
            raise ConfigError(f"prompts file not found: {path}")
        kwargs["prompts"] = [
            line.strip() for line in path.read_text().splitlines() if line.strip()
        ]
    if "prompts" in doc:
        prompts = doc.pop("prompts")
        if not isinstance(prompts, list) or not all(isinstance(p, str) for p in prompts):
            raise ConfigError("'prompts' must be a list of strings")
        kwargs["prompts"] = prompts
    for key in ("seed", "out_dir", "geometry_k", "attention_bias_weight"):
        if key in doc:
            kwargs[key] = doc.pop(key)
    if doc:
        raise ConfigError(f"unknown config keys: {sorted(doc)}")
    weight = kwargs.get("attention_bias_weight", 0.0)
    is_number = isinstance(weight, (int, float)) and not isinstance(weight, bool)
    if not (is_number and math.isfinite(weight)):
        raise ConfigError(f"attention_bias_weight must be a finite number, got {weight!r}")
    try:
        return RunConfig(**kwargs)
    except (TypeError, CdgError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc, base_dir=path.parent)


def config_echo(cfg: RunConfig) -> dict:
    """JSON-serializable snapshot of a run configuration."""
    g = cfg.guidance
    return {
        "encoder": vars(cfg.encoder) | {},
        "model": vars(cfg.model) | {},
        "schedule": vars(cfg.schedule) | {},
        "guidance": {
            "mode": g.mode.value,
            "guidance_scale": g.guidance_scale,
            "r_deg": g.r_deg,
            "lambda_block": g.lambda_block,
            "reuse_first_step_mask": g.reuse_first_step_mask,
        },
        "fusion": {
            "enabled": cfg.fusion.enabled,
            "v_min": cfg.fusion.v_min,
            "v_max": cfg.fusion.v_max,
        },
        "prompts": cfg.prompts,
        "seed": cfg.seed,
        "geometry_k": cfg.geometry_k,
        "attention_bias_weight": cfg.attention_bias_weight,
    }
