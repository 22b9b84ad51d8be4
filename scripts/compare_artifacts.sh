#!/usr/bin/env bash
# Byte-compare the CLI artifacts of a git revision with the working tree.
#
# Usage: scripts/compare_artifacts.sh REV
#
# Runs all five CLI commands (rank-tokens, build-mask at R=1.25, R=0.4,
# R=1.0 and R=2.0, sample, sweep, diagnose) on scripts/demo_config.json
# and on a CDG R=0.5 per-step fusion config, so build-mask's unranked
# full-type branch reaches an artifact with scores present; `sweep` on the
# demo config once more over the
# unsorted grid 1.0,0.3,2.0,0.3,1.1, which repeats a ratio, so the configs
# a sweep shares per ratio reach an artifact; `sample` alone on a CFG w=3
# config and on a CFG* w=2.5 R=0.5 per-step config, so every guidance role
# reaches an artifact; and `sample` and `sweep` on a CFG* w=2.5 per-step
# config that lists a 12-word prompt twice, so duplicate per-step chains,
# and the R=1.0 boundary beside R=1.1 and R=1.2 of equal mask extent,
# reach an artifact; `sample` on a CDG w=1.0 R=0.5 per-step config, so a
# degrading chain that is not guided reaches an artifact; and `diagnose`
# on a CDG R=1.5 config with
# `geometry_k: 2` that lists an empty prompt among three others, so zero
# deltas (a `None` per prompt and a lower `num_valid_prompts`), an explicit
# subspace dimension and R>1 reach an artifact; and `diagnose` on a CDG
# R=0.5 config with `d_x: 4`, `geometry_k: 4` and six prompts (one
# repeated), so a pooled delta span with more columns than d_x (rank below
# its column count) and a span rank no larger than k, the principal-angle
# orientation the other configs miss, reach an artifact; `diagnose` on a
# CDG R=0.5 config with two prompts, one of them empty, so every pooled
# delta span has one valid prompt and the rank-1 principal-angle path
# reaches an artifact; `diagnose` on a one-component model with `d_c: 1`,
# where every delta is a multiple of one column of the model's map, so
# each pooled span of three columns has numerical rank 1 and its basis is
# a slice of the left singular vectors, whose strides decide the last bit
# of `decoupling_pooled`; and `diagnose` on a CDG R=1.0 config, where no
# row ranks its tokens and the degrade step makes no stationary solve.
# Each runs once with the code of REV and once
# with the working tree, both reading the working tree's configs. The
# fusion windows of the fusion and diagnose configs keep some but not all
# heads (1 to 3 of 4) at every ranking of every command on them. Then
# `diff -r` compares the two output trees. Exits 0
# when every artifact is byte-identical, 1 on any difference or failed
# command, 2 on a usage error.
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

# run_all CODE_ROOT OUT: every command on the demo and fusion configs, a
# second `sweep` grid on the demo config, `sample` on the role configs
# and the unguided CDG config, `sample` and `sweep` on the duplicates
# config and `diagnose` on the five diagnose configs, outputs under OUT
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
    for config in "$tmp/cfg_config.json" "$tmp/cfg_star_config.json" \
        "$tmp/unguided_cdg_config.json"; do
        name=$(basename "$config" .json)
        cli sample sample
    done
    config=$tmp/duplicates_config.json
    name=duplicates_config
    cli sample sample
    cli sweep sweep
    for config in "$tmp/diagnose_config.json" "$tmp/small_diagnose_config.json" \
        "$tmp/rank_one_diagnose_config.json" "$tmp/collinear_diagnose_config.json" \
        "$tmp/boundary_diagnose_config.json"; do
        name=$(basename "$config" .json)
        cli diagnose diagnose
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
