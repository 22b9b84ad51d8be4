"""Run-config parsing: every JSON document is a config or a ConfigError."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdglab.config import RunConfig, ScheduleConfig, config_echo, parse_config
from cdglab.diffusion import SigmaSchedule
from cdglab.errors import ConfigError

SECTIONS = {
    "encoder": ["vocab_size", "d_model", "n_heads", "n_blocks", "seq_len", "seed"],
    "model": ["n_components", "d_x", "d_c", "seed", "spread_min", "spread_max"],
    "schedule": ["steps", "sigma_max", "sigma_min"],
    "guidance": ["mode", "guidance_scale", "r_deg", "lambda_block",
                 "reuse_first_step_mask"],
    "fusion": ["v_min", "v_max", "enabled"],
}
TOP_LEVEL = ["prompts", "seed", "out_dir", "geometry_k", "attention_bias_weight"]

# Python's json reads NaN and Infinity, so documents may hold them
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-3, 40)
    | st.sampled_from([10**400, -(10**400)])  # beyond the float range
    | st.floats()
    | st.sampled_from(["", "x", "cdg", "cfg", "none", "cfg_star"])
    | st.text(max_size=8)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


def _partial(keys: list[str], values) -> st.SearchStrategy[dict]:
    return st.dictionaries(st.sampled_from(keys), values, max_size=len(keys))


sections = st.fixed_dictionaries(
    {},
    optional={name: _partial(keys, json_values) | json_values
              for name, keys in SECTIONS.items()},
)
top_level = _partial(TOP_LEVEL + ["bogus"], json_values | st.lists(st.text(max_size=6)))
documents = st.builds(lambda a, b: {**a, **b}, sections, top_level) | json_values


@settings(max_examples=400, deadline=None)
@given(doc=documents)
def test_any_document_is_config_or_config_error(doc):
    # a document round-trips through JSON text, as the CLI reads it
    doc = json.loads(json.dumps(doc))
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    # an accepted config builds, whenever it is small enough to try here
    cfg.build_schedule()
    m, e = cfg.model, cfg.encoder
    if m.n_components * m.d_x * m.d_c <= 10**5:
        cfg.build_model()
    if (e.vocab_size + e.seq_len + 4 * e.n_blocks * e.d_model) * e.d_model <= 10**6:
        cfg.build_encoder()


@pytest.mark.parametrize(
    "doc",
    [
        {"seed": "x"},
        {"seed": 1.5},
        {"seed": True},
        {"model": {"d_x": "a"}},
        {"model": {"spread_min": 0.0}},
        {"encoder": {"d_model": "32"}},
        {"guidance": {"mode": "cdg", "r_deg": "0.5"}},
        {"guidance": {"mode": "cdg", "r_deg": -0.1}},
        {"guidance": {"mode": "cfg", "lambda_block": -1}},
        {"guidance": {"mode": "cfg", "reuse_first_step_mask": 1}},
        {"guidance": {"mode": ["cdg"]}},
        {"guidance": {"guidance_scale": 2.0}},
        {"schedule": {"steps": 0}},
        {"schedule": {"sigma_min": 0.0}},
        {"schedule": {"sigma_max": float("inf")}},
        {"schedule": {"steps": 100_001}},
        {"schedule": {"steps": 40, "sigma_min": 1.0, "sigma_max": 1.0000000000000002}},
        {"fusion": {"enabled": "yes"}},
        {"prompts": []},
        {"prompts_file": 5},
        {"out_dir": None},
        {"geometry_k": 0},
        {"geometry_k": 2.0},
        {"attention_bias_weight": 10**400},
        {"schedule": {"sigma_max": 10**400}},
        {"guidance": {"mode": "cfg", "guidance_scale": 10**400}},
    ],
    ids=lambda doc: json.dumps(doc),
)
def test_bad_values_rejected(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_empty_prompts_file_rejected(tmp_path):
    (tmp_path / "prompts.txt").write_text("\n  \n")
    with pytest.raises(ConfigError):
        parse_config({"prompts_file": "prompts.txt"}, base_dir=tmp_path)


def test_prompts_and_prompts_file_rejected(tmp_path):
    # both used to be read, and the file's prompts dropped without a word
    (tmp_path / "prompts.txt").write_text("a dog\n")
    doc = {"prompts": ["a cat"], "prompts_file": "prompts.txt"}
    with pytest.raises(ConfigError, match="'prompts' or 'prompts_file'"):
        parse_config(doc, base_dir=tmp_path)


def test_too_long_prompt_names_its_index():
    # seq_len 8 holds 6 words; the prompt used to fail only when a command ran
    doc = {"encoder": {"seq_len": 8}, "prompts": ["a cat", "one two three four five six seven"]}
    with pytest.raises(ConfigError, match=r"prompts\[1\].*7 words, max 6"):
        parse_config(doc)
    assert parse_config(doc | {"prompts": ["one two three four five six"]})


def test_guidance_without_mode_names_the_field():
    with pytest.raises(ConfigError, match="'mode'"):
        parse_config({"guidance": {"guidance_scale": 2.0}})


GOOD_DOCUMENTS = [
    {},
    {"geometry_k": None},
    {"geometry_k": 3},
    {"guidance": {"mode": "cdg", "guidance_scale": 3, "r_deg": 1}},
    {"guidance": {"mode": "cfg", "lambda_block": 0}},
    {"fusion": {"enabled": True, "v_min": 0, "v_max": float("inf")}},
    {"fusion": {"enabled": True, "v_min": 0.001, "v_max": 0.005}},
    {"schedule": {"steps": 1}},
    {"encoder": {"seq_len": 8}, "model": {"d_x": 4, "spread_max": 2},
     "prompts": ["a cat", ""], "seed": 3, "attention_bias_weight": 0},
]


@pytest.mark.parametrize("doc", GOOD_DOCUMENTS, ids=lambda doc: json.dumps(doc))
def test_good_values_accepted(doc):
    assert isinstance(parse_config(doc), RunConfig)


def test_integer_for_float_field_becomes_float():
    cfg = parse_config(
        {"schedule": {"sigma_max": 10},
         "guidance": {"mode": "cfg", "guidance_scale": 3},
         "attention_bias_weight": 0}
    )
    for value in (cfg.schedule.sigma_max, cfg.guidance.guidance_scale,
                  cfg.attention_bias_weight):
        assert type(value) is float


@settings(max_examples=200, deadline=None)
@given(doc=documents | st.sampled_from(GOOD_DOCUMENTS))
def test_echo_round_trips(doc):
    try:
        cfg = parse_config(json.loads(json.dumps(doc)))
    except ConfigError:
        return
    try:
        text = json.dumps(config_echo(cfg), allow_nan=False)
    except ValueError:
        return  # an echo that JSON cannot hold, such as an infinite bound
    # the echo drops out_dir, so it reads back with the default one
    assert parse_config(json.loads(text)) == replace(cfg, out_dir=RunConfig().out_dir)


def test_schedule_built_once():
    cfg = parse_config({"schedule": {"steps": 5}})
    schedule = cfg.build_schedule()
    assert cfg.build_schedule() is schedule
    assert schedule == SigmaSchedule.log_spaced(5, 10.0, 0.01)
    assert "_schedule" not in config_echo(cfg)


def test_replaced_config_checks_its_own_schedule():
    cfg = parse_config({"schedule": {"steps": 5}})
    assert replace(cfg, seed=3).build_schedule() == cfg.build_schedule()
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        replace(cfg, seed=-1)
    longer = replace(cfg, schedule=ScheduleConfig(steps=7))
    assert longer.build_schedule().steps == 7
    # bounds so close that the log-spaced grid rounds to equal sigmas
    close = ScheduleConfig(steps=3, sigma_max=1.0 + 2e-16, sigma_min=1.0)
    with pytest.raises(ConfigError, match="invalid section 'schedule'"):
        replace(cfg, schedule=close)
