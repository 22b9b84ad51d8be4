#!/usr/bin/env bash
# Criterion 8's one-time CDG overhead estimate, at a git revision and in the working tree.
#
# Usage: scripts/criterion8.sh REV N
#
# Runs tests/test_acceptance.py::test_criterion_8_efficiency in 2N fresh
# processes: N in REV's src/, tests/ and pyproject.toml (extracted with `git
# archive`) and N in the working tree's, each side's pytest from its own root,
# so each side runs its own tests and fixtures under its own pytest settings,
# alternating which side runs first in each pair. Prints each run's
# estimate, as the test reports it on its PASS line or in its failure, then
# each side's median, quartiles (inclusive method, as scripts/bench_pairs.sh
# takes them) and maximum. A run over the test's 10% bound still
# counts. Exits 0 when every run gave an estimate, 1 when one did not, and 2
# on a usage error.
set -euo pipefail

if [ $# -ne 2 ] || ! [[ $2 =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: $0 REV N  (N >= 1 processes a side)" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
root=$PWD
rev=$1
runs=$2
if ! git rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
    echo "error: unknown revision $rev" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git archive "$rev" src tests pyproject.toml | tar -x -C "$tmp/rev"

# estimate CODE_ROOT SIDE: one fresh process in CODE_ROOT, its estimate appended to $tmp/SIDE.txt
estimate() {
    local value
    # the test exits 1 over its bound, and its estimate still counts
    (cd "$1" && PYTHONPATH="$1/src" python3 -m pytest -q -s -p no:cacheprovider \
        tests/test_acceptance.py::test_criterion_8_efficiency) >"$tmp/run.log" 2>&1 || true
    value=$(sed -n '/overhead -\{0,1\}[0-9.]*%/{s/.*overhead \(-\{0,1\}[0-9.]*\)%.*/\1/p;q;}' "$tmp/run.log")
    if [ -z "$value" ]; then
        cat "$tmp/run.log" >&2
        echo "error: no criterion-8 estimate from the code in $1" >&2
        exit 1
    fi
    echo "$value" >>"$tmp/$2.txt"
    echo "$2 run $(wc -l <"$tmp/$2.txt"): $value%"
}

for ((i = 0; i < runs; i++)); do
    if ((i % 2 == 0)); then
        estimate "$tmp/rev" rev
        estimate "$root" tree
    else
        estimate "$root" tree
        estimate "$tmp/rev" rev
    fi
done

python3 - "$rev" "$tmp" <<'PY'
import statistics, sys
for side, label in (("rev", sys.argv[1]), ("tree", "working tree")):
    values = [float(line) for line in open(f"{sys.argv[2]}/{side}.txt")]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    print(f"{label}: median {statistics.median(values):.2f}%, quartiles {q1:.2f}-{q3:.2f}%, "
          f"max {max(values):.2f}% over {len(values)} processes")
PY
