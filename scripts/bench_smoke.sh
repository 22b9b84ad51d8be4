#!/usr/bin/env bash
# A short run of every benchmark workload, as a check that the benchmark still works.
#
# Usage: scripts/bench_smoke.sh [SECONDS]
#
# Runs `perfbench/run.py --seed 1 --trace 0` for SECONDS (default 2) on each
# of the workloads sweep, per_step and diagnose, then per_step once more
# with --trace 1, which also prints the layers it could not trace and the
# names in perfbench/spans.py that no longer exist. Takes about 15 s at the
# default. Prints each run's summary line. Exits 0 when every run's last
# line reads "correct": true and "failed": 0, 1 when a run does not, and 2
# on a usage error.
set -euo pipefail

if [ $# -gt 1 ] || { [ $# -eq 1 ] && ! [[ $1 =~ ^[0-9]+(\.[0-9]+)?$ && $1 =~ [1-9] ]]; }; then
    echo "usage: $0 [SECONDS]  (SECONDS > 0, default 2)" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
seconds=${1:-2}
status=0

# bench WORKLOAD TRACE: one run; sets status=1 unless its last line passes
bench() {
    local out last
    echo "== $1 --trace $2"
    if ! out=$(python3 perfbench/run.py --workload "$1" --seed 1 --seconds "$seconds" \
        --trace "$2"); then
        echo "error: $1 --trace $2 exited nonzero" >&2
        status=1
        return
    fi
    last=$(tail -n 1 <<<"$out")
    echo "$last"
    if [ "$2" = 1 ]; then
        grep 'untraced layers' <<<"$out" || true
        python3 -c 'import json, sys
print("  untraced targets:", ", ".join(json.load(open(sys.argv[1]))["untraced_targets"]) or "none")' \
            ".perfbench_out/$1-seed1-trace1.json"
    fi
    if ! python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$last" 2>/dev/null; then
        echo "error: $1 --trace $2 is not correct or has failures" >&2
        status=1
    fi
}

for workload in sweep per_step diagnose; do
    bench "$workload" 0
done
bench per_step 1
exit $status
