#!/bin/sh
# benchdiff.sh — compare two spatialbench BenchRecord JSON files and flag
# wall-clock regressions beyond a threshold (default 10%).
#
#   scripts/benchdiff.sh BENCH_baseline.json BENCH_current.json
#   THRESHOLD=5 scripts/benchdiff.sh old.json new.json
#
# With one argument, the second file is produced by running the EXPERIMENTS
# list (default locality,fig12) fresh at the baseline's scale:
#
#   scripts/benchdiff.sh BENCH_baseline.json
#   EXPERIMENTS=intervals scripts/benchdiff.sh BENCH_intervals.json
#
# Exit status: 0 clean, 1 regressions found, 2 usage/IO error.
set -eu

cd "$(dirname "$0")/.."
THRESHOLD="${THRESHOLD:-10}"
SCALE="${SCALE:-0.01}"
EXPERIMENTS="${EXPERIMENTS:-locality,fig12}"

case $# in
1)
	BASE="$1"
	CUR="$(mktemp /tmp/bench_current.XXXXXX.json)"
	trap 'rm -f "$CUR"' EXIT
	echo "== benchdiff: running current $EXPERIMENTS at scale $SCALE"
	go run ./cmd/spatialbench -exp "$EXPERIMENTS" -scale "$SCALE" -json "$CUR" >/dev/null
	;;
2)
	BASE="$1"
	CUR="$2"
	;;
*)
	echo "usage: scripts/benchdiff.sh baseline.json [current.json]" >&2
	exit 2
	;;
esac

exec go run ./cmd/benchdiff -threshold "$THRESHOLD" "$BASE" "$CUR"
