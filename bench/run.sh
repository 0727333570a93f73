#!/usr/bin/env bash
# bench/run.sh — the benchmark's one command.
#
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (this is BENCHMARK.json's command; the
#       last line of stdout is the result object)
#   bench/run.sh [outdir]
#       every workload, untraced then traced, in the foreground; writes
#       outdir/<workload>.json and outdir/<workload>.trace.json and exits
#       non-zero if any run failed its checks (SEED and SECONDS override
#       the defaults)
#
# Everything runs in this shell's foreground: the harness is built once
# with `go build` and exec'd; it boots its servers in-process, so there is
# no child to reap. Build products, the Go caches and every temp file stay
# under .bench_build/ in the checkout.
#
# bench/ is a module of its own (bench/go.mod, `replace repro => ../`), so
# the build needs the program's module one directory up; without it this
# script exits 1 before starting anything.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ ! -f go.mod ]]; then
	echo "bench/run.sh: no go.mod in $PWD: the program this benchmark builds is not here" >&2
	exit 1
fi

build=$PWD/.bench_build
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME=$build/config
# With telemetry in its default "local" mode the go command detaches a
# `go` child (the counter-file sidecar) that outlives it; "off" starts none.
echo off >"$build/config/go/telemetry/mode"
(cd bench && go build -o "$build/loadbench" ./loadbench)

if [[ ${1:-} == -* ]]; then
	exec "$build/loadbench" "$@"
fi

out=${1:-$build/results/$(date +%Y%m%dT%H%M%S)}
mkdir -p "$out"
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
seconds=${SECONDS_PER_RUN:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
status=0
for trace in 0 1; do
	suffix=.json
	[[ $trace == 1 ]] && suffix=.trace.json
	for w in select_wire join_single within_single fleet_mix ingest_read; do
		"$build/loadbench" -workload "$w" -seed "${SEED:-1}" -seconds "$seconds" -trace "$trace" \
			-commit "$commit" -out "$out/$w$suffix" | grep -v '^{' || status=1
	done
done

# Nothing this script started may outlive it.
for exe in /proc/[0-9]*/exe; do
	if [[ $(readlink "$exe" 2>/dev/null) == "$build/loadbench" ]]; then
		echo "bench/run.sh: loadbench still running as pid $(basename "$(dirname "$exe")")" >&2
		status=1
	fi
done
echo "results in $out"
exit $status
