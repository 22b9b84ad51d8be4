#!/usr/bin/env bash
# Paired benchmark runs of a git revision (the parent) against the working tree (the change).
#
# Usage: scripts/bench_pairs.sh REV WORKLOAD N [SECONDS]
#
# Extracts REV's tree with `git archive` into a temporary directory, then
# runs N pairs of `perfbench/run.py --workload WORKLOAD --seed S --seconds
# SECONDS --trace 0`: one run with REV's tree and its own perfbench/, one with
# the working tree's, alternating which side runs first. Each pair takes a
# fresh seed; the seeds are BASE+1..BASE+N for a random BASE printed at the
# start, so a run can be repeated by hand. SECONDS defaults to BENCHMARK.json's
# run_seconds. Warns when REV's perfbench/ or BENCHMARK.json differs from the
# working tree's, since the two sides then run different benchmarks; changes
# neither. Prints every run's summary line, then for each end-to-end metric
# of BENCHMARK.json: each side's median and quartiles, the change/parent
# ratio of the medians, and the pairs the change won by the metric's
# `better` direction (ties count for neither side), and whether the medians
# differ by more than the parent's quartile spread. Exits 0 when every run
# reads "correct": true with 0 failed, 1 when one does not, and 2 on a usage
# error.
set -euo pipefail

usage() {
    echo "usage: $0 REV WORKLOAD N [SECONDS]  (N >= 1 pairs, SECONDS > 0)" >&2
    exit 2
}
if [ $# -lt 3 ] || [ $# -gt 4 ] || ! [[ $3 =~ ^[1-9][0-9]*$ ]]; then
    usage
fi
if [ $# -eq 4 ] && ! [[ $4 =~ ^[0-9]+(\.[0-9]+)?$ && $4 =~ [1-9] ]]; then
    usage
fi
cd "$(dirname "$0")/.."
root=$PWD
rev=$1
workload=$2
pairs=$3
if ! git rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
    echo "error: unknown revision $rev" >&2
    exit 2
fi
if ! python3 -c 'import json, sys
sys.exit(sys.argv[1] not in {w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]})' \
    "$workload"; then
    echo "error: unknown workload $workload (see BENCHMARK.json)" >&2
    exit 2
fi
seconds=${4:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git archive "$rev" | tar -x -C "$tmp/rev"
for path in perfbench BENCHMARK.json; do
    if ! diff -rq -x __pycache__ "$tmp/rev/$path" "$root/$path" >/dev/null 2>&1; then
        echo "warning: $path differs between $rev and the working tree;" \
            "each side runs its own" >&2
    fi
done

base=$(python3 -c 'import secrets; print(secrets.randbelow(10**9))')
echo "pairs of $rev (parent) and the working tree (change): workload=$workload" \
    "seconds=$seconds seeds $((base + 1))..$((base + pairs))"
status=0

# bench CODE_ROOT SIDE SEED: one run; its last line appended to $tmp/SIDE.jsonl
bench() {
    local out last
    if ! out=$(cd "$1" && python3 perfbench/run.py --workload "$workload" --seed "$3" \
        --seconds "$seconds" --trace 0); then
        echo "error: $2 run at seed $3 exited nonzero" >&2
        status=1
        last='{"correct": false, "failed": -1, "metrics": {}}'
    else
        last=$(tail -n 1 <<<"$out")
    fi
    echo "$last" >>"$tmp/$2.jsonl"
    echo "$2 seed $3: $last"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then
        bench "$tmp/rev" parent $((base + i))
        bench "$root" change $((base + i))
    else
        bench "$root" change $((base + i))
        bench "$tmp/rev" parent $((base + i))
    fi
done

python3 - "$tmp" <<'PY' || status=1
import json, statistics, sys

tmp = sys.argv[1]
runs = {side: [json.loads(line) for line in open(f"{tmp}/{side}.jsonl")]
        for side in ("parent", "change")}
bad = [side for side, rs in runs.items() for r in rs
       if r.get("correct") is not True or r.get("failed") != 0]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


for metric in json.load(open("BENCHMARK.json"))["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    if not all(name in r["metrics"] for rs in runs.values() for r in rs):
        print(f"{name}: missing from a run")
        continue
    parent, change = ([r["metrics"][name]["value"] for r in runs[s]] for s in ("parent", "change"))
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    (pm, (p1, p3)), (cm, (c1, c3)) = ((statistics.median(v), quartiles(v)) for v in (parent, change))
    ratio = cm / pm if pm else float("nan")
    spread = "beyond" if abs(cm - pm) > p3 - p1 else "within"
    print(f"{name} [{metric['unit']}, {metric['better']} is better]: "
          f"parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
          f"change/parent {ratio:.4f}  change won {wins}/{len(parent)} (ties {ties})  "
          f"median gap {spread} the parent's quartile spread")
if bad:
    print(f"error: {len(bad)} run(s) not correct with 0 failed", file=sys.stderr)
    sys.exit(1)
PY
exit "$status"
