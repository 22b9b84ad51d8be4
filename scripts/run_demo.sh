#!/usr/bin/env bash
# End-to-end demo: runs all five CLI commands against scripts/demo_config.json.
# It runs from the repository root, whatever the current directory, so outputs
# land under runs/demo/ there.
set -euo pipefail

cd "$(dirname "$0")/.."
# Run from a plain checkout: the package lives under src/.
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
CONFIG=scripts/demo_config.json

echo "== rank-tokens: attention-graph token importance =="
python3 -m cdglab.cli rank-tokens --config "$CONFIG" --prompt "a man is cooking" --force

echo "== build-mask: stratified degradation mask at R=1.25 =="
python3 -m cdglab.cli build-mask --config "$CONFIG" --prompt "a man is cooking" --r-deg 1.25 --force

echo "== sample: CDG-guided probability-flow ODE sampling =="
python3 -m cdglab.cli sample --config "$CONFIG" --force

echo "== sweep: degradation-ratio sweep over the default 21-point grid =="
python3 -m cdglab.cli sweep --config "$CONFIG" --force

echo "== diagnose: guidance-signal geometry (decoupling / interference) =="
python3 -m cdglab.cli diagnose --config "$CONFIG" --force

echo
echo "Outputs written under runs/demo/:"
find runs/demo -type f | sort
