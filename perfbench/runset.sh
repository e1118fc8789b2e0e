#!/usr/bin/env bash
# Runs the untraced benchmark once per seed on each named workload and
# keeps every run's output in <out-dir>, one file per run, for
#
#   bash perfbench/run.sh report <out-dir-A> <out-dir-B>
#
# Run from the repository root:
#
#   bash perfbench/runset.sh <out-dir> <first-seed> <count> <seconds> <workload>...
set -euo pipefail
if [ $# -lt 5 ]; then
	echo "usage: $0 <out-dir> <first-seed> <count> <seconds> <workload>..." >&2
	exit 2
fi
out=$1 first=$2 count=$3 seconds=$4
shift 4
mkdir -p "$out"
for wl in "$@"; do
	for ((s = first; s < first + count; s++)); do
		bash perfbench/run.sh --workload "$wl" --seed "$s" --seconds "$seconds" --trace 0 >"$out/$wl-$s.out"
		tail -n 1 "$out/$wl-$s.out"
	done
done
