#!/usr/bin/env bash
set -euo pipefail

# Run the experiment grid and collect machine-readable artifacts.
#
# Output:
#   bench_runs/<timestamp>/<exp>_r<NN>.json   raw BenchRecords per repeat
#   bench_runs/<timestamp>/<exp>_r<NN>.log    human-readable run log
#   bench_runs/<timestamp>/all.csv            flattened CSV over every JSON
#
# Usage:
#   scripts/run_all.sh [outdir]
#
# Environment knobs:
#   EXPERIMENTS   comma list passed to spatialbench -exp  (default: shard,ingest,intervals,failover)
#   SCALE         dataset scale                            (default: spatialbench default)
#   REPEATS       repeats per experiment                   (default: 3)

ROOT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT_DIR"

STAMP="$(date +%Y-%m-%d_%H%M%S)"
OUT_DIR="${1:-$ROOT_DIR/bench_runs/$STAMP}"
EXPERIMENTS="${EXPERIMENTS:-shard,ingest,intervals,failover}"
REPEATS="${REPEATS:-3}"
SCALE="${SCALE:-}"

mkdir -p "$OUT_DIR"
echo "Repo:        $ROOT_DIR"
echo "Output:      $OUT_DIR"
echo "Experiments: $EXPERIMENTS x $REPEATS repeats"

echo "== building =="
go build -o "$OUT_DIR/spatialbench" ./cmd/spatialbench
go build -o "$OUT_DIR/benchcsv" ./cmd/benchcsv

IFS=',' read -ra EXPS <<<"$EXPERIMENTS"
JSONS=()
for exp in "${EXPS[@]}"; do
  exp="$(echo "$exp" | tr -d '[:space:]')"
  for rep in $(seq 1 "$REPEATS"); do
    tag="$(printf '%s_r%02d' "$exp" "$rep")"
    json="$OUT_DIR/$tag.json"
    log="$OUT_DIR/$tag.log"
    args=(-exp "$exp" -json "$json")
    if [[ -n "$SCALE" ]]; then
      args+=(-scale "$SCALE")
    fi
    echo "== $exp (repeat $rep/$REPEATS) =="
    "$OUT_DIR/spatialbench" "${args[@]}" >"$log" 2>&1 || {
      echo "FAILED: see $log" >&2
      tail -5 "$log" >&2
      exit 1
    }
    JSONS+=("$json")
    tail -2 "$log"
  done
done

"$OUT_DIR/benchcsv" -o "$OUT_DIR/all.csv" "${JSONS[@]}"
echo "== done: $OUT_DIR/all.csv ($(($(wc -l <"$OUT_DIR/all.csv") - 1)) rows) =="
