#!/usr/bin/env bash
# Byte-compare the CLI artifacts of a git revision with the working tree.
#
# Usage: scripts/compare_artifacts.sh REV
#
# Runs each config below with the code of REV and with the working tree, both
# reading the working tree's configs, then `diff -r` compares the two output
# trees. Exits 0 when every artifact is byte-identical, 1 on any difference or
# failed command, 2 on a usage error. Each config (scripts/demo_config.json,
# the others NAME_config.json below), its commands, and the path it brings to
# an artifact:
#   demo: all five; build-mask at R=1.25/0.4/1.0/2.0; sweep over 1.0,0.3,2.0,0.3,1.1 (a ratio repeated); sample --seed 7 (the override in metadata.json)
#   fusion: all five, CDG R=0.5 per-step, 1 to 3 of 4 heads kept; build-mask's unranked whole-type branch with scores
#   cfg: sample, the CFG role at w=3
#   cfg_star: sample, the CFG* role at w=2.5, R=0.5 per-step
#   unguided_cdg: sample, a degrading chain at w=1.0 that is not guided
#   duplicates: sample and sweep, a 12-word prompt twice (duplicate per-step chains), R=1.0 beside 1.1 and 1.2 of equal extent
#   diagnose: diagnose, an empty prompt among three (zero deltas, fewer valid prompts), geometry_k 2, R=1.5;
#     sweep, so the replaced counts per type of sweep.csv cover a row with no content token
#   small_diagnose: diagnose, d_x 4 and six prompts, so pooled spans of rank below their column count and the other angle orientation
#   rank_one_diagnose: diagnose, two prompts, one empty, so every pooled span has one valid prompt (the rank-1 path)
#   collinear_diagnose: diagnose, one component and d_c 1, so rank-1 pooled spans whose basis is a strided slice of u
#   boundary_diagnose: diagnose at R=1.0, where no row ranks and the degrade step makes no solve
#   big_seed_diagnose: diagnose, the diagnose config at seed 2**64 + 5 (five 32-bit entropy words a latent), no fusion filter (it rejects every head there)
#   one_prompt: sweep, one prompt over the default 21-point grid: one ranking key shared by 15 rows beside an R=1.0 row (the one-key weights inside a many-row call)
#   bias_zero: sample, CDG R=0.5 per-step over two prompts at attention_bias_weight 0.0 (the keys' static attention)
#   bias_zero_diagnose: diagnose, three prompts at attention_bias_weight 0.0
#   block_zero_diagnose: diagnose at lambda_block 0, a prompt repeated: states taken from the embeddings, before any block;
#     rank-tokens, build-mask at R=0.4 and sample, whose attention and prompt states come from the stacked walk
#   three_block_diagnose: diagnose, a 3-block encoder at lambda_block 1: states taken between two blocks;
#     rank-tokens, build-mask at R=0.4 and sample, as block_zero_diagnose
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
root=$PWD
rev=$1
if ! git rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
    echo "error: unknown revision $rev" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git archive "$rev" | tar -x -C "$tmp/rev"

cat >"$tmp/fusion_config.json" <<'JSON'
{
  "model": {"n_components": 4, "d_x": 8, "d_c": 8, "seed": 0},
  "schedule": {"steps": 28, "sigma_max": 10.0, "sigma_min": 0.01},
  "guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 0.5,
               "reuse_first_step_mask": false},
  "fusion": {"enabled": true, "v_min": 0.00103, "v_max": 0.0056},
  "prompts": [
    "a man is cooking",
    "the dog runs in a park",
    "a woman paints the old wall",
    "a man is cooking"
  ],
  "seed": 0
}
JSON

cat >"$tmp/cfg_config.json" <<'JSON'
{
  "model": {"n_components": 4, "d_x": 8, "d_c": 8, "seed": 0},
  "schedule": {"steps": 28, "sigma_max": 10.0, "sigma_min": 0.01},
  "guidance": {"mode": "cfg", "guidance_scale": 3.0},
  "prompts": ["a man is cooking", "the dog runs in a park", "a man is cooking"],
  "seed": 0
}
JSON

cat >"$tmp/cfg_star_config.json" <<'JSON'
{
  "model": {"n_components": 4, "d_x": 8, "d_c": 8, "seed": 0},
  "schedule": {"steps": 28, "sigma_max": 10.0, "sigma_min": 0.01},
  "guidance": {"mode": "cfg_star", "guidance_scale": 2.5, "r_deg": 0.5,
               "reuse_first_step_mask": false},
  "prompts": ["a man is cooking", "the dog runs in a park", "a man is cooking"],
  "seed": 0
}
JSON

cat >"$tmp/unguided_cdg_config.json" <<'JSON'
{
  "model": {"n_components": 4, "d_x": 8, "d_c": 8, "seed": 0},
  "schedule": {"steps": 28, "sigma_max": 10.0, "sigma_min": 0.01},
  "guidance": {"mode": "cdg", "guidance_scale": 1.0, "r_deg": 0.5,
               "reuse_first_step_mask": false},
  "prompts": ["a man is cooking", "the dog runs in a park", "a man is cooking"],
  "seed": 0
}
JSON

cat >"$tmp/duplicates_config.json" <<'JSON'
{
  "model": {"n_components": 4, "d_x": 8, "d_c": 8, "seed": 0},
  "schedule": {"steps": 28, "sigma_max": 10.0, "sigma_min": 0.01},
  "guidance": {"mode": "cfg_star", "guidance_scale": 2.5, "r_deg": 0.5,
               "reuse_first_step_mask": false},
  "prompts": [
    "the old man and the young woman cook dinner in a kitchen",
    "a man is cooking",
    "the old man and the young woman cook dinner in a kitchen"
  ],
  "seed": 0
}
JSON

cat >"$tmp/diagnose_config.json" <<'JSON'
{
  "model": {"n_components": 4, "d_x": 8, "d_c": 8, "seed": 0},
  "schedule": {"steps": 28, "sigma_max": 10.0, "sigma_min": 0.01},
  "guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 1.5},
  "fusion": {"enabled": true, "v_min": 0.00015, "v_max": 0.0025},
  "geometry_k": 2,
  "prompts": [
    "a man is cooking",
    "",
    "the dog runs in a park",
    "a woman paints the old wall"
  ],
  "seed": 0
}
JSON

cat >"$tmp/small_diagnose_config.json" <<'JSON'
{
  "model": {"n_components": 4, "d_x": 4, "d_c": 8, "seed": 0},
  "schedule": {"steps": 28, "sigma_max": 10.0, "sigma_min": 0.01},
  "guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 0.5},
  "geometry_k": 4,
  "prompts": [
    "a man is cooking",
    "the dog runs in a park",
    "a woman paints the old wall",
    "a man is cooking",
    "blue mountains at dusk",
    "robots dancing in the rain"
  ],
  "seed": 0
}
JSON

cat >"$tmp/rank_one_diagnose_config.json" <<'JSON'
{
  "model": {"n_components": 4, "d_x": 8, "d_c": 8, "seed": 0},
  "schedule": {"steps": 28, "sigma_max": 10.0, "sigma_min": 0.01},
  "guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 0.5},
  "prompts": ["", "the dog runs in a park"],
  "seed": 0
}
JSON

cat >"$tmp/collinear_diagnose_config.json" <<'JSON'
{
  "model": {"n_components": 1, "d_x": 4, "d_c": 1, "seed": 0},
  "schedule": {"steps": 28, "sigma_max": 10.0, "sigma_min": 0.01},
  "guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 0.5},
  "prompts": [
    "a man is cooking",
    "the dog runs in a park",
    "a woman paints the old wall"
  ],
  "seed": 0
}
JSON

cat >"$tmp/boundary_diagnose_config.json" <<'JSON'
{
  "model": {"n_components": 4, "d_x": 8, "d_c": 8, "seed": 0},
  "schedule": {"steps": 28, "sigma_max": 10.0, "sigma_min": 0.01},
  "guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 1.0},
  "prompts": [
    "a man is cooking",
    "the dog runs in a park",
    "a woman paints the old wall"
  ],
  "seed": 0
}
JSON

cat >"$tmp/big_seed_diagnose_config.json" <<'JSON'
{
  "model": {"n_components": 4, "d_x": 8, "d_c": 8, "seed": 0},
  "schedule": {"steps": 28, "sigma_max": 10.0, "sigma_min": 0.01},
  "guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 1.5},
  "geometry_k": 2,
  "prompts": [
    "a man is cooking",
    "",
    "the dog runs in a park",
    "a woman paints the old wall"
  ],
  "seed": 18446744073709551621
}
JSON

cat >"$tmp/one_prompt_config.json" <<'JSON'
{
  "model": {"n_components": 4, "d_x": 8, "d_c": 8, "seed": 0},
  "schedule": {"steps": 28, "sigma_max": 10.0, "sigma_min": 0.01},
  "guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 0.5},
  "prompts": ["the old man and the young woman cook dinner in a kitchen"],
  "seed": 0
}
JSON

cat >"$tmp/bias_zero_config.json" <<'JSON'
{
  "model": {"n_components": 4, "d_x": 8, "d_c": 8, "seed": 0},
  "schedule": {"steps": 28, "sigma_max": 10.0, "sigma_min": 0.01},
  "guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 0.5,
               "reuse_first_step_mask": false},
  "attention_bias_weight": 0.0,
  "prompts": ["a man is cooking", "the dog runs in a park"],
  "seed": 0
}
JSON

cat >"$tmp/bias_zero_diagnose_config.json" <<'JSON'
{
  "model": {"n_components": 4, "d_x": 8, "d_c": 8, "seed": 0},
  "schedule": {"steps": 28, "sigma_max": 10.0, "sigma_min": 0.01},
  "guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 0.5},
  "attention_bias_weight": 0.0,
  "prompts": [
    "a man is cooking",
    "the dog runs in a park",
    "a woman paints the old wall"
  ],
  "seed": 0
}
JSON

cat >"$tmp/block_zero_diagnose_config.json" <<'JSON'
{
  "model": {"n_components": 4, "d_x": 8, "d_c": 8, "seed": 0},
  "schedule": {"steps": 28, "sigma_max": 10.0, "sigma_min": 0.01},
  "guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 0.5, "lambda_block": 0},
  "prompts": [
    "a man is cooking",
    "the dog runs in a park",
    "a man is cooking",
    "a woman paints the old wall"
  ],
  "seed": 0
}
JSON

cat >"$tmp/three_block_diagnose_config.json" <<'JSON'
{
  "encoder": {"n_blocks": 3},
  "model": {"n_components": 4, "d_x": 8, "d_c": 8, "seed": 0},
  "schedule": {"steps": 28, "sigma_max": 10.0, "sigma_min": 0.01},
  "guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 0.5, "lambda_block": 1},
  "prompts": [
    "a man is cooking",
    "the dog runs in a park",
    "a woman paints the old wall"
  ],
  "seed": 0
}
JSON

# run_all CODE_ROOT OUT: the commands listed above, outputs under OUT
run_all() {
    local code=$1 out=$2 config name
    cli() {
        local dir=$1
        shift
        if ! PYTHONPATH="$code/src" python3 -m cdglab.cli "$@" \
            --config "$config" --out "$out/$name/$dir" --force 2>"$tmp/stderr.log"; then
            cat "$tmp/stderr.log" >&2
            echo "error: cdglab $1 failed on $name with the code in $code" >&2
            exit 1
        fi
    }
    for config in "$root/scripts/demo_config.json" "$tmp/fusion_config.json"; do
        name=$(basename "$config" .json)
        cli rank-tokens rank-tokens --prompt "a man is cooking"
        cli build-mask-1.25 build-mask --prompt "a man is cooking" --r-deg 1.25
        cli build-mask-0.4 build-mask --prompt "a man is cooking" --r-deg 0.4
        cli build-mask-1.0 build-mask --prompt "a man is cooking" --r-deg 1.0
        cli build-mask-2.0 build-mask --prompt "a man is cooking" --r-deg 2.0
        cli sample sample
        cli sweep sweep
        cli diagnose diagnose
    done
    config=$root/scripts/demo_config.json
    name=demo_config
    cli sweep-grid sweep --grid 1.0,0.3,2.0,0.3,1.1
    cli sample-seed-7 sample --seed 7
    for config in "$tmp/cfg_config.json" "$tmp/cfg_star_config.json" \
        "$tmp/unguided_cdg_config.json"; do
        name=$(basename "$config" .json)
        cli sample sample
    done
    config=$tmp/duplicates_config.json
    name=duplicates_config
    cli sample sample
    cli sweep sweep
    config=$tmp/one_prompt_config.json
    name=one_prompt_config
    cli sweep sweep
    config=$tmp/bias_zero_config.json
    name=bias_zero_config
    cli sample sample
    config=$tmp/diagnose_config.json
    name=diagnose_config
    cli sweep sweep
    for config in "$tmp/diagnose_config.json" "$tmp/small_diagnose_config.json" \
        "$tmp/rank_one_diagnose_config.json" "$tmp/collinear_diagnose_config.json" \
        "$tmp/boundary_diagnose_config.json" "$tmp/big_seed_diagnose_config.json" \
        "$tmp/bias_zero_diagnose_config.json" "$tmp/block_zero_diagnose_config.json" \
        "$tmp/three_block_diagnose_config.json"; do
        name=$(basename "$config" .json)
        cli diagnose diagnose
    done
    for config in "$tmp/block_zero_diagnose_config.json" "$tmp/three_block_diagnose_config.json"; do
        name=$(basename "$config" .json)
        cli rank-tokens rank-tokens --prompt "a man is cooking"
        cli build-mask-0.4 build-mask --prompt "a man is cooking" --r-deg 0.4
        cli sample sample
    done
}

run_all "$tmp/rev" "$tmp/out-rev"
run_all "$root" "$tmp/out-tree"
if diff -r "$tmp/out-rev" "$tmp/out-tree"; then
    echo "artifacts byte-identical: $rev vs working tree ($(find "$tmp/out-tree" -type f | wc -l) files)"
else
    echo "artifacts differ: $rev vs working tree" >&2
    exit 1
fi
