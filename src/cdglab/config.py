"""Run configuration: one JSON document drives every CLI command."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, partial
from pathlib import Path

from .diffusion import DEFAULT_ATTENTION_BIAS_WEIGHT, GmmConditionalModel, SigmaSchedule
from .encoder import EncoderParams, TokenSequence, ToyTextEncoder, tokenize
from .errors import CdgError, ConfigError, PromptTooLongError
from .guidance import GuidanceConfig, GuidanceMode
from .importance import FusionConfig


# bounds the schedule RunConfig builds to check it
MAX_STEPS = 100_000


@dataclass(frozen=True)
class ModelConfig:
    n_components: int = 4
    d_x: int = 8
    d_c: int = 8
    seed: int = 0
    spread_min: float = 0.3
    spread_max: float = 1.0

    def __post_init__(self):
        if min(self.n_components, self.d_x, self.d_c) < 1:
            raise ConfigError("n_components, d_x and d_c must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0.0 < self.spread_min <= self.spread_max < math.inf:
            raise ConfigError("need 0 < spread_min <= spread_max, both finite")


@dataclass(frozen=True)
class ScheduleConfig:
    steps: int = 28
    sigma_max: float = 10.0
    sigma_min: float = 0.01

    def __post_init__(self):
        if not 1 <= self.steps <= MAX_STEPS:
            raise ConfigError(f"steps must be between 1 and {MAX_STEPS}")
        if not 0.0 < self.sigma_min < self.sigma_max < math.inf:
            raise ConfigError("need 0 < sigma_min < sigma_max, both finite")


@dataclass(frozen=True)
class RunConfig:
    """A run configuration, checked once: its sections by their own classes, the rest here."""

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
    attention_bias_weight: float = DEFAULT_ATTENTION_BIAS_WEIGHT

    def __post_init__(self):
        if not self.prompts:
            raise ConfigError("no prompts given")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.geometry_k is not None and self.geometry_k < 1:
            raise ConfigError("geometry_k must be >= 1")
        if not math.isfinite(self.attention_bias_weight):
            raise ConfigError("attention_bias_weight must be finite")
        if not 0 <= self.guidance.lambda_block < self.encoder.n_blocks:
            raise ConfigError(f"lambda_block must be in [0, n_blocks = {self.encoder.n_blocks})")
        self._schedule  # a schedule that rounds to one not decreasing fails here
        self.tokens  # a prompt too long for the encoder fails here, at load

    @cached_property
    def _schedule(self) -> SigmaSchedule:
        """The checked schedule, built once; not a field, so not in the echo."""
        s = self.schedule
        try:
            # close sigma bounds can round to a schedule that is not decreasing
            return SigmaSchedule.log_spaced(s.steps, s.sigma_max, s.sigma_min)
        except CdgError as exc:
            raise ConfigError(f"invalid section 'schedule': {exc}") from exc

    @cached_property
    def tokens(self) -> list[TokenSequence]:
        """Each prompt's tokens, made once; not a field, so not in the echo."""
        out = []
        for i, prompt in enumerate(self.prompts):
            try:
                out.append(tokenize(prompt, self.encoder))
            except PromptTooLongError as exc:
                raise ConfigError(f"prompts[{i}]: {exc}") from exc
        return out

    def build_encoder(self) -> ToyTextEncoder:
        return ToyTextEncoder(self.encoder, self.model.d_x, self.model.d_c)

    def build_model(self) -> GmmConditionalModel:
        m = self.model
        return GmmConditionalModel.random(
            m.n_components, m.d_x, m.d_c, seed=m.seed,
            spread_range=(m.spread_min, m.spread_max),
        )

    def build_schedule(self) -> SigmaSchedule:
        """The schedule checked at load: one frozen object, shared by every call."""
        return self._schedule


# the JSON values a field accepts, by the name of its annotated type; the
# config modules postpone annotations, so each is a string such as "int | None"
_ACCEPTS = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,), "None": ()}


def _check_types(cls, data: dict, prefix: str) -> dict:
    """Reject a JSON value that does not fit the annotated type of its field.

    Returns the data with the number of every float field made a float.
    """
    annotations = {f.name: f.type for f in fields(cls)}
    checked = dict(data)
    for key, value in data.items():
        allowed = annotations.get(key, "").split(" | ")
        if not all(name in _ACCEPTS for name in allowed):
            continue  # unknown keys are reported by the constructor, enums by the caller
        ok = value is None and "None" in allowed
        ok = ok or any(isinstance(value, _ACCEPTS[name]) for name in allowed)
        if isinstance(value, bool):
            ok = "bool" in allowed
        if not ok:
            names = " or ".join(allowed).replace("None", "null")
            raise ConfigError(f"'{prefix}{key}' must be {names}, got {value!r}")
        if "float" in allowed and isinstance(value, int):
            try:
                checked[key] = float(value)
            except OverflowError:
                raise ConfigError(f"'{prefix}{key}' is out of float range") from None
    return checked


def _build(cls, data: dict, section: str):
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section}' must be an object")
    data = _check_types(cls, data, f"{section}.")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"bad field in section '{section}': {exc}") from exc
    except CdgError as exc:
        raise ConfigError(f"invalid section '{section}': {exc}") from exc


def _parse_guidance(data: dict, section: str) -> GuidanceConfig:
    if isinstance(data, dict):
        if "mode" not in data:
            raise ConfigError(f"section '{section}' must give 'mode'")
        try:
            data = data | {"mode": GuidanceMode(data["mode"])}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"unknown guidance mode {data['mode']!r}") from exc
    # a ratio outside [0, 2] fails in the constructor, as a ConfigError
    return _build(GuidanceConfig, data, section)


# every section of a config, by its key, and the parser of its JSON object
_SECTIONS = {
    "encoder": partial(_build, EncoderParams),
    "model": partial(_build, ModelConfig),
    "schedule": partial(_build, ScheduleConfig),
    "guidance": _parse_guidance,
    "fusion": partial(_build, FusionConfig),
}


def parse_config(doc: dict, base_dir: Path | None = None) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    doc = dict(doc)
    kwargs = {name: parse(doc.pop(name), name)
              for name, parse in _SECTIONS.items() if name in doc}
    if "prompts_file" in doc:
        if "prompts" in doc:
            raise ConfigError("give 'prompts' or 'prompts_file', not both")
        name = doc.pop("prompts_file")
        if not isinstance(name, str):
            raise ConfigError("'prompts_file' must be a string")
        path = Path(name)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        if not path.is_file():
            raise ConfigError(f"prompts file not found: {path}")
        try:
            lines = path.read_text().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read prompts file {path}: {exc}") from exc
        kwargs["prompts"] = [line.strip() for line in lines if line.strip()]
    elif "prompts" in doc:
        prompts = doc.pop("prompts")
        if not isinstance(prompts, list) or not all(isinstance(p, str) for p in prompts):
            raise ConfigError("'prompts' must be a list of strings")
        kwargs["prompts"] = prompts
    # what is left of RunConfig's fields are its top-level scalars
    scalars = {f.name: doc.pop(f.name) for f in fields(RunConfig) if f.name in doc}
    kwargs.update(_check_types(RunConfig, scalars, ""))
    if doc:
        raise ConfigError(f"unknown config keys: {sorted(doc)}")
    return RunConfig(**kwargs)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config {path} is nested too deeply") from None
    return parse_config(doc, base_dir=path.parent)


def config_echo(cfg: RunConfig) -> dict:
    """JSON-serializable snapshot of a run configuration: every field a
    config gives, less the output directory and the derived ratios."""
    echo = asdict(cfg)
    del echo["out_dir"], echo["guidance"]["ratios"]
    echo["guidance"]["mode"] = cfg.guidance.mode.value
    return echo
