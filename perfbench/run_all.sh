#!/usr/bin/env bash
# Run every workload once and print its end-to-end metrics.
#   bash perfbench/run_all.sh [seed] [seconds] [trace]
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in sweep per_step diagnose; do
    python3 perfbench/run.py --workload "$workload" --seed "${1:-0}" \
        --seconds "${2:-25}" --trace "${3:-0}"
done
