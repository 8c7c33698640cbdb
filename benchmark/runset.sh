#!/usr/bin/env bash
# One set of runs: every workload end to end on ten seeds, appended to
# the given file for `-compare`. Run from the repository root.
#   bash benchmark/runset.sh <out.jsonl> [first-seed]
set -euo pipefail
out=$1
first=${2:-1}
for seed in $(seq "$first" $((first + 9))); do
	for w in embed-search embed-constraint serve-small write-mix; do
		bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds 15 --trace 0 --out "$out" >/dev/null
	done
done
