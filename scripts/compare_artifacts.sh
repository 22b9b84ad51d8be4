#!/usr/bin/env bash
# Byte-compare the CLI artifacts of a git revision with the working tree.
#
# Usage: scripts/compare_artifacts.sh REV
#
# Runs all five CLI commands (rank-tokens, build-mask at R=1.25 and R=0.4,
# sample, sweep, diagnose) on scripts/demo_config.json and on a CDG R=0.5
# per-step fusion config; `sample` alone on a CFG w=3 config and on a
# CFG* w=2.5 R=0.5 per-step config, so every guidance role reaches an
# artifact; and `sample` and `sweep` on a CFG* w=2.5 per-step config that
# lists a 12-word prompt twice, so duplicate per-step chains, and the
# R=1.0 boundary beside R=1.1 and R=1.2 of equal mask extent, reach an
# artifact; and `diagnose` on a CDG R=1.5 config with `geometry_k: 2` that
# lists an empty prompt among three others, so zero deltas (a `None` per
# prompt and a lower `num_valid_prompts`), an explicit subspace dimension
# and R>1 reach an artifact. Each runs once with the code of REV and once
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

# run_all CODE_ROOT OUT: every command on the demo and fusion configs,
# `sample` on the role configs, `sample` and `sweep` on the duplicates
# config and `diagnose` on the diagnose config, outputs under OUT
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
        cli sample sample
        cli sweep sweep
        cli diagnose diagnose
    done
    for config in "$tmp/cfg_config.json" "$tmp/cfg_star_config.json"; do
        name=$(basename "$config" .json)
        cli sample sample
    done
    config=$tmp/duplicates_config.json
    name=duplicates_config
    cli sample sample
    cli sweep sweep
    config=$tmp/diagnose_config.json
    name=diagnose_config
    cli diagnose diagnose
}

run_all "$tmp/rev" "$tmp/out-rev"
run_all "$root" "$tmp/out-tree"
if diff -r "$tmp/out-rev" "$tmp/out-tree"; then
    echo "artifacts byte-identical: $rev vs working tree ($(find "$tmp/out-tree" -type f | wc -l) files)"
else
    echo "artifacts differ: $rev vs working tree" >&2
    exit 1
fi
