#!/bin/sh
# check.sh — the full local gate: gofmt, vet, the reachability walk
# (scripts/reach: no declaration under internal/ that no verb, figure,
# example or benchmark reaches, no struct field that nothing they reach
# sets, methods called through an interface reaching only the reached
# types that implement it, bar the listed //reach:keep ones, each naming
# a test function that exists),
# race-enabled tests (the bench/ module included), the join executor's
# concurrent failure paths, the stuck-query timers and the coordinator's
# cancel and stall paths ten times over under -race, one pass of each
# kernel micro-benchmark (BenchmarkRasterize times the interval
# rasterizer beside the area oracle it replaced, BenchmarkColumnBuild a
# whole layer's interval column, BenchmarkCompare the interval verdict
# over every join_single candidate pair, BenchmarkWithinRefine the
# software tester's distance step over the benchmark's undecided within
# pairs, BenchmarkWithinFilter its filter stage over all of them,
# BenchmarkSelect one in-process select over the benchmark's windows,
# BenchmarkExecSelect the same select served through Engine.Exec on one
# session, BenchmarkParsePolygonWKT the select verb's WKT parse,
# BenchmarkOverlay the overlay verb's area step over the bench layers'
# pairs beside the per-slab scan it replaced), and a
# short fuzz smoke pass over the input parsers, the polygon WKT parser
# against the parser it replaced (FuzzParsePolygonWKT), the wire
# command grammar (FuzzExec), the wire row parser, the distance kernel
# bounded and unbounded (FuzzBoundaryWithin, FuzzMinDist), the
# rasterizer's cell walk, the interval rasterizer against its oracle
# (FuzzRasterize), the Hilbert tables against the loops they replaced
# (FuzzHilbert), the walk over two lists' shared partial runs
# (FuzzSharedPartial), the interval verdict against a cell-by-cell oracle
# (FuzzCompare) and the signature kernel against the cell-by-cell
# loop (FuzzSignaturesMayIntersect). Run from the repo root.
#
#   scripts/check.sh              # everything (~2-3 min)
#   FUZZTIME=30s scripts/check.sh # longer fuzz pass
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${FUZZTIME:-10s}"

echo "== gofmt -l ."
test -z "$(gofmt -l .)" || { echo "not gofmt-formatted:"; gofmt -l .; exit 1; }

echo "== go vet ./..."
go vet ./...

echo "== reachability (go run ./scripts/reach: exits 1 on a declaration nothing reaches, a field nothing reached sets, or a //reach:keep naming no existing test; methods reach by receiver type; prints the keep list)"
go run ./scripts/reach

echo "== go test -race ./..."
go test -race ./...

echo "== query executor failure paths, joins and selections (-race -count=10: cancel in generation, mid-probe and mid-refine, late budget trip, failing sink)"
# The blanket run above executes them once; a lost wake-up or a goroutine
# left behind shows only over repeats, and as a hang — hence the timeout.
go test -race -count=10 -timeout 120s -run TestExecutorConcurrency ./internal/query/

echo "== stuck-query timers and coordinator cancel paths (-race -count=10: kill at the threshold, sever after the grace, disarm; sink abort, stalled tile)"
# Timer and cancel races: a kill or a close that fires after its query
# returned, or a timer left armed, shows only over repeats.
go test -race -count=10 -timeout 300s -run 'TestWatchdog' ./internal/server/
go test -race -count=10 -timeout 300s -run 'TestCoordinatorSinkFailureIsNotAShardFailure|TestStalledTileProbesForReadmission' ./internal/coord/

echo "== bench module (frozen; vet + tests: tier-1 does not see bench/)"
# bench/ is its own module reaching the program through a replace
# directive, so an API change in dist/filter/core/query can break the
# benchmark build without go build ./... noticing — and the harness is
# frozen between benchmark PRs, so it is the program that must keep
# compiling against it, never the other way round.
git diff --quiet HEAD -- bench BENCHMARK.json || { echo "bench/ or BENCHMARK.json differs from HEAD: the benchmark is frozen"; exit 1; }
(cd bench && go vet ./... && go test ./...)

echo "== kernel micro-benchmark smoke (one pass each)"
go test -run '^$' -bench 'BoundaryWithin|WithinRefine|WithinFilter|ContainsPoint|DrawSegment|HWTestCycle|Rasterize|ColumnBuild|Compare|Select|ExecSelect|ParsePolygonWKT|Overlay' -benchtime 1x ./internal/dist/ ./internal/core/ ./internal/geom/ ./internal/raster/ ./internal/interval/ ./internal/query/ ./internal/shellcmd/ ./internal/overlay/

echo "== spatiald e2e (concurrent clients, drain, fault containment)"
go test -race -count 1 ./internal/server/ -run 'TestE2EConcurrentClients|TestShutdownDrainsPartialResults|TestFault'

echo "== spatiald chaos mini-soak (10s, randomized faults, -race)"
# Two phases of ~SOAKDUR each: under delays, panics and disconnects every
# completed result must stay bit-identical; a coordinator fleet under
# replica kills and restarts must answer every query exactly, never
# partially. The seed is logged for replay.
SOAKDUR="${SOAKDUR:-10s}"
go test -race -count 1 ./internal/server/ -run TestSoak -soakdur "$SOAKDUR"

echo "== coordinator failover soak on seeds that once failed it (-race)"
# A seed that found a failover gap runs on every check from then on,
# beside the clock-derived one above.
for seed in 1792111712118268781 1792146688259739678; do
	go test -race -count 1 ./internal/server/ -run TestSoak/CoordinatorFailover -soakdur "$SOAKDUR" -faultseed "$seed"
done

echo "== spatialbench smoke (two repeats per point in the JSON and the summary; a bad name runs nothing)"
SBDIR="$(mktemp -d /tmp/bench_smoke.XXXXXX)"
go build -o "$SBDIR/spatialbench" ./cmd/spatialbench
"$SBDIR/spatialbench" -exp table2,fig12 -scale 0.02 -repeats 2 -json "$SBDIR/out.json" >"$SBDIR/out.txt"
# table2 has 5 points, fig12 2 x (sw + 6 resolutions) = 14: each once as repeat 1, once as repeat 2.
[ "$(grep -c '"repeat": 1' "$SBDIR/out.json")" -eq 19 ] && [ "$(grep -c '"repeat": 2' "$SBDIR/out.json")" -eq 19 ] ||
	{ echo "JSON does not hold two repeats of each of 19 points"; exit 1; }
grep -q '"go_version"' "$SBDIR/out.json" || { echo "JSON records no environment"; exit 1; }
[ "$(grep -c ' n=2 ' "$SBDIR/out.txt")" -eq 19 ] || { echo "summary does not print n=2 for each of 19 points"; cat "$SBDIR/out.txt"; exit 1; }
set +e
"$SBDIR/spatialbench" -exp bogus -json "$SBDIR/bogus.json" >"$SBDIR/bogus.txt" 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "-exp bogus exited $rc, want 2"; cat "$SBDIR/bogus.txt"; exit 1; }
[ ! -e "$SBDIR/bogus.json" ] || { echo "-exp bogus wrote a -json file"; exit 1; }
rm -rf "$SBDIR"

echo "== snapshot round-trip + corruption-rejection smoke"
# A layer saved as a binary snapshot must reload and join identically to
# the built layer, and a bit-flipped snapshot must be rejected with a
# typed error (never bound, never a panic).
SNAPDIR="$(mktemp -d /tmp/snap_smoke.XXXXXX)"
go run ./cmd/spatialdb -data "$SNAPDIR" >"$SNAPDIR/out.txt" <<'EOF'
gen s LANDC 0.005
save s s
load t s
join s t sw
layers
EOF
grep -q 'from snapshot' "$SNAPDIR/out.txt" || { echo "snapshot load missing"; cat "$SNAPDIR/out.txt"; exit 1; }
grep -q 'join: ' "$SNAPDIR/out.txt" || { echo "snapshot join missing"; cat "$SNAPDIR/out.txt"; exit 1; }
grep -q 'snapshot:LANDC' "$SNAPDIR/out.txt" || { echo "snapshot provenance missing"; cat "$SNAPDIR/out.txt"; exit 1; }
# Corrupt the coordinate payload (well past the 24B header + section
# table). Eight 0xFF bytes encode a NaN no valid snapshot can contain, so
# the payload is guaranteed to differ from what was written.
printf '\377\377\377\377\377\377\377\377' | dd of="$SNAPDIR/s.snap" bs=1 seek=4096 count=8 conv=notrunc 2>/dev/null
if echo "load bad s" | go run ./cmd/spatialdb -data "$SNAPDIR" | grep -q 'error:.*CRC'; then
	:
else
	echo "corrupted snapshot was not rejected with a CRC error"; exit 1
fi
rm -rf "$SNAPDIR"

echo "== interval filter smoke (v2 snapshot true hits; its join rows, refined narrowed to the shared partial cells, match the pre-v2 signature fallback's unnarrowed ones; selections, which run neither filter, answer alike from both)"
# A join over snapshot-loaded layers must engage the persisted interval
# column (nonzero true hits), and snapshots saved without the interval
# section (the pre-v2 format) must fall back to the v1 signature path
# with a line-identical pair set — and give a selection, which runs
# neither filter, a line-identical id list.
IVDIR="$(mktemp -d /tmp/ival_smoke.XXXXXX)"
go run ./cmd/spatialdb -data "$IVDIR" >"$IVDIR/v2.txt" <<'EOF'
gen a LANDC 0.01
gen b LANDO 0.01
save a a
save b b
load sa a
load sb b
join sa sb sw
shardjoin sa sb -Inf -Inf +Inf +Inf
shardselect sa POLYGON((10 10, 40 10, 40 40, 10 40, 10 10))
EOF
grep -q 'from snapshot' "$IVDIR/v2.txt" || { echo "interval smoke: snapshot load missing"; cat "$IVDIR/v2.txt"; exit 1; }
grep -q 'interval_true_hits=[1-9]' "$IVDIR/v2.txt" || { echo "snapshot join reported no interval true hits"; cat "$IVDIR/v2.txt"; exit 1; }
go run ./cmd/spatialdb -data "$IVDIR" >"$IVDIR/v1.txt" <<'EOF'
gen a LANDC 0.01
gen b LANDO 0.01
save a a1 nointervals
save b b1 nointervals
load sa a1
load sb b1
join sa sb sw
shardjoin sa sb -Inf -Inf +Inf +Inf
shardselect sa POLYGON((10 10, 40 10, 40 40, 10 40, 10 10))
EOF
if grep -q -e 'interval_checks=' -e '"interval_checks"' "$IVDIR/v1.txt"; then
	echo "pre-v2 snapshot still engaged the interval filter"; cat "$IVDIR/v1.txt"; exit 1
fi
grep -oE '\bid [0-9]+' "$IVDIR/v2.txt" >"$IVDIR/v2.ids"
grep -oE '\bid [0-9]+' "$IVDIR/v1.txt" >"$IVDIR/v1.ids"
[ -s "$IVDIR/v2.ids" ] || { echo "interval smoke selection produced no ids"; cat "$IVDIR/v2.txt"; exit 1; }
cmp -s "$IVDIR/v2.ids" "$IVDIR/v1.ids" || {
	echo "interval filter changed the selection answer vs the v1 signature path"
	diff "$IVDIR/v2.ids" "$IVDIR/v1.ids" | head -10
	exit 1
}
grep -oE 'pair [0-9]+ [0-9]+' "$IVDIR/v2.txt" | sort >"$IVDIR/v2.pairs"
grep -oE 'pair [0-9]+ [0-9]+' "$IVDIR/v1.txt" | sort >"$IVDIR/v1.pairs"
[ -s "$IVDIR/v2.pairs" ] || { echo "interval smoke join produced no pairs"; cat "$IVDIR/v2.txt"; exit 1; }
cmp -s "$IVDIR/v2.pairs" "$IVDIR/v1.pairs" || {
	echo "interval filter changed the join answer vs the v1 signature path"
	diff "$IVDIR/v2.pairs" "$IVDIR/v1.pairs" | head -10
	exit 1
}
# The session knob must ablate the filter without changing the answer.
go run ./cmd/spatialdb -data "$IVDIR" >"$IVDIR/off.txt" <<'EOF'
load sa a
load sb b
intervals off
join sa sb sw
EOF
grep -q 'intervals off' "$IVDIR/off.txt" || { echo "intervals off verb failed"; cat "$IVDIR/off.txt"; exit 1; }
if grep -q 'interval_checks=' "$IVDIR/off.txt"; then
	echo "intervals off still engaged the interval filter"; cat "$IVDIR/off.txt"; exit 1
fi
rm -rf "$IVDIR"

echo "== crash-recovery smoke (WAL crash injection, restart, verify)"
# Ingest under an injected crash at the second WAL fsync, then restart
# over the same directory: every acknowledged insert must survive, and a
# live-view select must see exactly the recovered objects. The binary is
# built (not `go run`) so the injected crash's exit code 86 is observable.
INGDIR="$(mktemp -d /tmp/ingest_smoke.XXXXXX)"
go build -o "$INGDIR/spatialdb" ./cmd/spatialdb
set +e
"$INGDIR/spatialdb" -ingest "$INGDIR/wal" -faultseed 1 -faultspec 'wal.fsync=crash:1@1' >"$INGDIR/crash.txt" 2>/dev/null <<'EOF'
live fleet
insert fleet POLYGON ((0 0, 1 0, 1 1, 0 1))
insert fleet POLYGON ((2 0, 3 0, 3 1, 2 1))
insert fleet POLYGON ((4 0, 5 0, 5 1, 4 1))
EOF
rc=$?
set -e
[ "$rc" -eq 86 ] || { echo "injected crash did not fire (exit $rc)"; cat "$INGDIR/crash.txt"; exit 1; }
ACKED="$(grep -c 'inserted id' "$INGDIR/crash.txt" || true)"
[ "$ACKED" -ge 1 ] || { echo "no insert was acknowledged before the crash"; cat "$INGDIR/crash.txt"; exit 1; }
"$INGDIR/spatialdb" -ingest "$INGDIR/wal" >"$INGDIR/recover.txt" <<'EOF'
live fleet
select fleet POLYGON ((-1 -1, 9 -1, 9 2, -1 2))
quit
EOF
RECOVERED="$(sed -n 's/.*live table "fleet": \([0-9]*\) objects.*/\1/p' "$INGDIR/recover.txt")"
[ -n "$RECOVERED" ] || { echo "recovery did not reopen the table"; cat "$INGDIR/recover.txt"; exit 1; }
[ "$RECOVERED" -ge "$ACKED" ] || { echo "lost acked writes: acked $ACKED, recovered $RECOVERED"; cat "$INGDIR/recover.txt"; exit 1; }
grep -q "select: $RECOVERED results" "$INGDIR/recover.txt" || { echo "live select disagrees with recovered count"; cat "$INGDIR/recover.txt"; exit 1; }
rm -rf "$INGDIR"

echo "== multi-shard smoke (partition 4 tiles, boot shards + coordinator, parity, drain)"
# Partition two layers into 4 spatial tiles, boot one spatiald per tile
# plus a coordinator fronting them, and verify the scatter-gather join
# and select answers are line-identical to the single-node answers
# (stable global ids make them directly comparable). Then SIGTERM the
# whole fleet and require clean drains.
SHDIR="$(mktemp -d /tmp/shard_smoke.XXXXXX)"
SHPIDS=""
trap '[ -z "$SHPIDS" ] || kill $SHPIDS 2>/dev/null || true; rm -rf "$SHDIR"' EXIT
go build -o "$SHDIR/spatiald" ./cmd/spatiald
go build -o "$SHDIR/spatialdb" ./cmd/spatialdb
"$SHDIR/spatialdb" >"$SHDIR/single.txt" <<EOF
gen a LANDC 0.01
gen b LANDO 0.01
partition a 4 $SHDIR/tiles 2
partition b 4 $SHDIR/tiles 2
shardjoin a b -Inf -Inf +Inf +Inf
shardselect a POLYGON((10 10, 40 10, 40 40, 10 40, 10 10))
EOF
grep -c 'partitioned' "$SHDIR/single.txt" | grep -q 2 || { echo "partition failed"; cat "$SHDIR/single.txt"; exit 1; }
# Boot one shard per tile directory on an ephemeral port.
bound_addr() {
	i=0
	while [ $i -lt 100 ]; do
		# The log may not exist yet: the shell creates it when it starts the
		# backgrounded server, not before this function is entered.
		a="$(sed -n 's/.*serving wire protocol on \([0-9.]*:[0-9]*\).*/\1/p' "$1" 2>/dev/null || true)"
		if [ -n "$a" ]; then echo "$a"; return 0; fi
		i=$((i + 1)); sleep 0.1
	done
	echo "shard did not report its address: $1" >&2; return 1
}
ADDRS=""
for d in "$SHDIR"/tiles/shard-0 "$SHDIR"/tiles/shard-1 "$SHDIR"/tiles/shard-2 "$SHDIR"/tiles/shard-3; do
	log="$SHDIR/$(basename "$d").log"
	"$SHDIR/spatiald" -addr 127.0.0.1:0 -http "" -data "$d" -quiet >"$log" 2>&1 &
	SHPIDS="$SHPIDS $!"
	ADDRS="$ADDRS,$(bound_addr "$log")"
done
ADDRS="${ADDRS#,}"
"$SHDIR/spatiald" -addr 127.0.0.1:0 -http "" -coordinator "$SHDIR/tiles" -shards "$ADDRS" -quiet >"$SHDIR/coord.log" 2>&1 &
COORD_PID=$!
SHPIDS="$SHPIDS $COORD_PID"
COORD_ADDR="$(bound_addr "$SHDIR/coord.log")"
"$SHDIR/spatiald" -connect "$COORD_ADDR" -e "join a b; select a POLYGON((10 10, 40 10, 40 40, 10 40, 10 10))" >"$SHDIR/fleet.txt"
grep -oE 'pair [0-9]+ [0-9]+' "$SHDIR/single.txt" | sort >"$SHDIR/single_pairs.txt"
grep -oE 'pair [0-9]+ [0-9]+' "$SHDIR/fleet.txt" | sort >"$SHDIR/fleet_pairs.txt"
[ -s "$SHDIR/single_pairs.txt" ] || { echo "single-node join produced no pairs"; exit 1; }
cmp -s "$SHDIR/single_pairs.txt" "$SHDIR/fleet_pairs.txt" || {
	echo "sharded join differs from single-node join"
	diff "$SHDIR/single_pairs.txt" "$SHDIR/fleet_pairs.txt" | head -10
	exit 1
}
grep -oE '\bid [0-9]+' "$SHDIR/single.txt" | sort >"$SHDIR/single_ids.txt"
grep -oE '\bid [0-9]+' "$SHDIR/fleet.txt" | sort >"$SHDIR/fleet_ids.txt"
[ -s "$SHDIR/single_ids.txt" ] || { echo "single-node select produced no ids"; exit 1; }
cmp -s "$SHDIR/single_ids.txt" "$SHDIR/fleet_ids.txt" || {
	echo "sharded select differs from single-node select"
	diff "$SHDIR/single_ids.txt" "$SHDIR/fleet_ids.txt" | head -10
	exit 1
}
# Clean drain: every process must exit 0 on SIGTERM.
for pid in $SHPIDS; do kill -TERM "$pid"; done
for pid in $SHPIDS; do
	wait "$pid" || { echo "fleet process $pid did not drain cleanly"; cat "$SHDIR"/*.log; exit 1; }
done
SHPIDS=""
grep -q 'shutting down' "$SHDIR/coord.log" || { echo "coordinator skipped the drain path"; cat "$SHDIR/coord.log"; exit 1; }
trap - EXIT
rm -rf "$SHDIR"

echo "== failover smoke (2 tiles x 2 replicas, SIGKILL a replica, retries cover, prober readmits)"
# Partition at replicas=2 and boot the four-process fleet behind a
# probing coordinator. A SIGKILL'd replica must not degrade the
# answer: the next join has to complete from 2/2 shards with the pair set
# line-identical to single-node (the coordinator fails over to the
# surviving sibling). Then the corpse restarts on its pinned address and
# the shards verb must show the prober readmitting it (breaker leaves
# "open"), after which a final join confirms the fleet healed.
FODIR="$(mktemp -d /tmp/failover_smoke.XXXXXX)"
FOPIDS=""
trap '[ -z "$FOPIDS" ] || kill -9 $FOPIDS 2>/dev/null || true; rm -rf "$FODIR"' EXIT
go build -o "$FODIR/spatiald" ./cmd/spatiald
go build -o "$FODIR/spatialdb" ./cmd/spatialdb
"$FODIR/spatialdb" >"$FODIR/single.txt" <<EOF
gen a LANDC 0.01
gen b LANDO 0.01
partition a 2 $FODIR/tiles 2 2
partition b 2 $FODIR/tiles 2 2
shardjoin a b -Inf -Inf +Inf +Inf
EOF
grep -oE 'pair [0-9]+ [0-9]+' "$FODIR/single.txt" | sort >"$FODIR/single_pairs.txt"
[ -s "$FODIR/single_pairs.txt" ] || { echo "single-node join produced no pairs"; cat "$FODIR/single.txt"; exit 1; }
# Boot replica r of tile t over tiles/shard-<t>[-r<r>]; the routing table
# pins each replica's address, so restarts reuse it.
VICTIM_PID=""
RADDRS=""
for d in shard-0 shard-0-r1 shard-1 shard-1-r1; do
	log="$FODIR/$d.log"
	"$FODIR/spatiald" -addr 127.0.0.1:0 -http "" -data "$FODIR/tiles/$d" -quiet >"$log" 2>&1 &
	pid=$!
	FOPIDS="$FOPIDS $pid"
	[ -n "$VICTIM_PID" ] || VICTIM_PID=$pid
	RADDRS="$RADDRS $(bound_addr "$log")"
done
set -- $RADDRS
VICTIM_ADDR=$1
"$FODIR/spatiald" -addr 127.0.0.1:0 -http "" -coordinator "$FODIR/tiles" \
	-shards "$1/$2,$3/$4" -shard-probe 50ms -quiet >"$FODIR/coord.log" 2>&1 &
FOPIDS="$FOPIDS $!"
FO_ADDR="$(bound_addr "$FODIR/coord.log")"
fo_join() {
	"$FODIR/spatiald" -connect "$FO_ADDR" -e "join a b" >"$FODIR/$1.txt" || { echo "$1 join failed"; cat "$FODIR/$1.txt"; exit 1; }
	grep -q 'from 2/2 shards' "$FODIR/$1.txt" || { echo "$1 join did not complete from 2/2 shards"; cat "$FODIR/$1.txt"; exit 1; }
	grep -oE 'pair [0-9]+ [0-9]+' "$FODIR/$1.txt" | sort >"$FODIR/$1_pairs.txt"
	cmp -s "$FODIR/single_pairs.txt" "$FODIR/$1_pairs.txt" || {
		echo "$1 join differs from single-node join"
		diff "$FODIR/single_pairs.txt" "$FODIR/$1_pairs.txt" | head -10
		exit 1
	}
}
fo_join healthy
kill -9 "$VICTIM_PID"
fo_join degraded
"$FODIR/spatiald" -addr "$VICTIM_ADDR" -http "" -data "$FODIR/tiles/shard-0" -quiet >"$FODIR/shard-0-restart.log" 2>&1 &
FOPIDS="$FOPIDS $!"
bound_addr "$FODIR/shard-0-restart.log" >/dev/null
READMITTED=0
i=0
while [ $i -lt 100 ]; do
	st="$("$FODIR/spatiald" -connect "$FO_ADDR" -e shards | awk '$2=="0/0"{print $5}')"
	if [ -n "$st" ] && [ "$st" != "open" ]; then READMITTED=1; break; fi
	i=$((i + 1)); sleep 0.1
done
[ "$READMITTED" -eq 1 ] || { echo "prober never readmitted the restarted replica (state '$st')"; "$FODIR/spatiald" -connect "$FO_ADDR" -e shards; exit 1; }
fo_join recovered
kill $FOPIDS 2>/dev/null || true
FOPIDS=""
trap - EXIT
rm -rf "$FODIR"

echo "== streaming + batch smoke (in-process vs wire-streamed rows, TCP vs HTTP /stream bytes, join- and select-verb parity)"
# One executor answers every join and selection verb: the same
# full-extent join, and the same window selection, must produce
# byte-identical rows in emit order run in-process and over the wire (rows
# streamed as batches complete), and on one server join, pjoin and
# whole-plane shardjoin must report the same result count, within and
# shardwithin likewise, select and shardselect likewise. The batch verb
# must run its ";"-separated sub-commands in one round trip with per-sub
# trailers. HTTP /stream must answer the same command with the TCP rows
# byte for byte, its stats record and ok.
WINDOW="POLYGON((10 10, 40 10, 40 40, 10 40, 10 10))"
STDIR="$(mktemp -d /tmp/stream_smoke.XXXXXX)"
STPID=""
trap '[ -z "$STPID" ] || kill $STPID 2>/dev/null || true; rm -rf "$STDIR"' EXIT
go build -o "$STDIR/spatiald" ./cmd/spatiald
go build -o "$STDIR/spatialdb" ./cmd/spatialdb
mkdir "$STDIR/snap"
"$STDIR/spatialdb" -data "$STDIR/snap" >"$STDIR/pipe.txt" <<EOF
gen a LANDC 0.01
gen b LANDO 0.01
save a a
save b b
shardjoin a b -Inf -Inf +Inf +Inf
shardselect a $WINDOW
EOF
"$STDIR/spatiald" -addr 127.0.0.1:0 -http 127.0.0.1:0 -data "$STDIR/snap" -quiet >"$STDIR/stream.log" 2>&1 &
STPID=$!
ST_ADDR="$(bound_addr "$STDIR/stream.log")"
# The HTTP address ends the wire address's line, written in the same
# write: once that line is seen, both addresses are there.
ST_HTTP="$(sed -n 's/.*serving wire protocol on .*, http on \([0-9.]*:[0-9]*\).*/\1/p' "$STDIR/stream.log")"
[ -n "$ST_HTTP" ] || { echo "streaming server did not report its HTTP address"; cat "$STDIR/stream.log"; exit 1; }
# One stdin line so the ";" reaches the server inside the batch verb
# (the client's -e flag splits scripts on ";" before sending).
echo "shardjoin a b -Inf -Inf +Inf +Inf" | "$STDIR/spatiald" -connect "$ST_ADDR" >"$STDIR/wire.txt"
for f in pipe wire; do
	grep -oE 'pair [0-9]+ [0-9]+' "$STDIR/$f.txt" | sort >"$STDIR/$f.pairs"
done
[ -s "$STDIR/pipe.pairs" ] || { echo "in-process shardjoin produced no pairs"; cat "$STDIR/pipe.txt"; exit 1; }
# verb_count <command>: the result count a verb reports on the server —
# the "<verb>: N results" summary, or for a shard verb its stats record.
verb_count() {
	echo "$1" | "$STDIR/spatiald" -connect "$ST_ADDR" |
		sed -n -e 's/^[a-z]*: \([0-9]*\) results.*/\1/p' -e 's/^stats .*"results":\([0-9]*\).*/\1/p'
}
WANT_JOIN="$(wc -l <"$STDIR/pipe.pairs" | tr -d ' ')"
for cmd in "join a b" "pjoin a b" "shardjoin a b -Inf -Inf +Inf +Inf"; do
	got="$(verb_count "$cmd")"
	[ "$got" = "$WANT_JOIN" ] || { echo "'$cmd' reports '$got' results, in-process shardjoin emitted $WANT_JOIN pairs"; exit 1; }
done
WANT_WITHIN="$(verb_count "within a b 1")"
[ -n "$WANT_WITHIN" ] && [ "$WANT_WITHIN" -ge "$WANT_JOIN" ] || { echo "within reports '$WANT_WITHIN' results, fewer than the $WANT_JOIN intersecting pairs"; exit 1; }
got="$(verb_count "shardwithin a b 1 -Inf -Inf +Inf +Inf")"
[ "$got" = "$WANT_WITHIN" ] || { echo "shardwithin reports '$got' results, within $WANT_WITHIN"; exit 1; }
cmp -s "$STDIR/pipe.pairs" "$STDIR/wire.pairs" || {
	echo "wire-streamed join differs from in-process join"
	diff "$STDIR/pipe.pairs" "$STDIR/wire.pairs" | head -10
	exit 1
}
# Byte for byte, in emit order: the recorded wire response must be the
# in-process Exec output's rows, then one stats record (its timings
# differ), then the status line, and nothing else. A framing slip in the
# session's batch writer (a lost newline, a split or repeated row) fails
# the gate here, not a client.
sed 's/^> //' "$STDIR/pipe.txt" | grep '^pair ' >"$STDIR/pipe.rows"
grep -v -e '^stats ' -e '^ok$' "$STDIR/wire.txt" >"$STDIR/wire.rows" || true
cmp "$STDIR/pipe.rows" "$STDIR/wire.rows" || { echo "wire shardjoin response is not byte-identical to the in-process output"; exit 1; }
[ "$(grep -c -v '^pair ' "$STDIR/wire.txt")" -eq 2 ] && [ "$(tail -n 1 "$STDIR/wire.txt")" = ok ] || {
	echo "wire shardjoin response is not rows + stats + ok"; grep -v '^pair ' "$STDIR/wire.txt"; exit 1
}
# The same command over HTTP /stream: the TCP rows byte for byte, then
# one stats record, then ok, and nothing else.
curl -sS --fail --get --data-urlencode "cmd=shardjoin a b -Inf -Inf +Inf +Inf" "http://$ST_HTTP/stream" >"$STDIR/http.txt" ||
	{ echo "/stream shardjoin failed"; cat "$STDIR/http.txt"; exit 1; }
NROWS="$(wc -l <"$STDIR/wire.rows" | tr -d ' ')"
head -n "$NROWS" "$STDIR/http.txt" | cmp - "$STDIR/wire.rows" || { echo "/stream shardjoin rows are not the TCP rows byte for byte"; exit 1; }
[ "$(wc -l <"$STDIR/http.txt" | tr -d ' ')" -eq $((NROWS + 2)) ] &&
	sed -n "$((NROWS + 1))p" "$STDIR/http.txt" | grep -q '^stats ' &&
	[ "$(tail -n 1 "$STDIR/http.txt")" = ok ] || {
	echo "/stream shardjoin response is not rows + stats + ok"; tail -n 3 "$STDIR/http.txt"; exit 1
}
# The same for a selection, whose rows are ids in ascending order, and
# select must count what shardselect streams.
echo "shardselect a $WINDOW" | "$STDIR/spatiald" -connect "$ST_ADDR" >"$STDIR/wiresel.txt"
sed 's/^> //' "$STDIR/pipe.txt" | grep '^id ' >"$STDIR/pipesel.rows" || true
grep -v -e '^stats ' -e '^ok$' "$STDIR/wiresel.txt" >"$STDIR/wiresel.rows" || true
[ -s "$STDIR/pipesel.rows" ] || { echo "in-process shardselect produced no ids"; cat "$STDIR/pipe.txt"; exit 1; }
cmp "$STDIR/pipesel.rows" "$STDIR/wiresel.rows" || { echo "wire shardselect response is not byte-identical to the in-process output"; exit 1; }
WANT_SELECT="$(wc -l <"$STDIR/pipesel.rows" | tr -d ' ')"
for cmd in "select a $WINDOW" "shardselect a $WINDOW"; do
	got="$(verb_count "$cmd")"
	[ "$got" = "$WANT_SELECT" ] || { echo "'$cmd' reports '$got' results, in-process shardselect emitted $WANT_SELECT ids"; exit 1; }
done
echo "batch join a b sw; shardjoin a b -Inf -Inf +Inf +Inf" | "$STDIR/spatiald" -connect "$ST_ADDR" >"$STDIR/batch.txt"
grep -q 'sub 1 ok: join' "$STDIR/batch.txt" || { echo "batch sub 1 trailer missing"; cat "$STDIR/batch.txt"; exit 1; }
grep -q 'sub 2 ok: shardjoin' "$STDIR/batch.txt" || { echo "batch sub 2 trailer missing"; cat "$STDIR/batch.txt"; exit 1; }
grep -oE 'pair [0-9]+ [0-9]+' "$STDIR/batch.txt" | sort >"$STDIR/batch.pairs"
cmp -s "$STDIR/pipe.pairs" "$STDIR/batch.pairs" || {
	echo "batch-verb join differs from in-process join"
	diff "$STDIR/pipe.pairs" "$STDIR/batch.pairs" | head -10
	exit 1
}
kill -TERM "$STPID"
wait "$STPID" || { echo "streaming server did not drain cleanly"; cat "$STDIR/stream.log"; exit 1; }
STPID=""
trap - EXIT
rm -rf "$STDIR"

echo "== mode-word smoke (one session: within hw three times and sw once, rows byte-identical)"
# Both words build the software-only tester, so a client that still
# sends hw must get the sw rows. shardwithin over the whole plane is the
# within verb with its rows streamed. Only the rows and the result count
# are compared; the record's timings differ run to run.
MDDIR="$(mktemp -d /tmp/modeword_smoke.XXXXXX)"
MDPID=""
trap '[ -z "$MDPID" ] || kill $MDPID 2>/dev/null || true; rm -rf "$MDDIR"' EXIT
go build -o "$MDDIR/spatiald" ./cmd/spatiald
"$MDDIR/spatiald" -addr 127.0.0.1:0 -http "" -preload "water=WATER:0.1,prism=PRISM:0.1" -quiet >"$MDDIR/srv.log" 2>&1 &
MDPID=$!
MD_ADDR="$(bound_addr "$MDDIR/srv.log")"
MDW="shardwithin water prism 1 -Inf -Inf +Inf +Inf"
printf '%s hw\n%s hw\n%s hw\n%s sw\n' "$MDW" "$MDW" "$MDW" "$MDW" |
	"$MDDIR/spatiald" -connect "$MD_ADDR" >"$MDDIR/out.txt"
# One file per command (each ends at its "ok"); of the stats record only
# the result count is kept.
awk -v dir="$MDDIR" '/^stats / { match($0, /"results":[0-9]+/); $0 = "stats " substr($0, RSTART, RLENGTH) }
	{ print > (dir "/run" n ".txt") } /^ok$/ { n++ }' n=1 "$MDDIR/out.txt"
for i in 1 2 3 4; do
	[ -s "$MDDIR/run$i.txt" ] || { echo "mode-word smoke: command $i printed nothing"; cat "$MDDIR/out.txt"; exit 1; }
done
grep -q '^pair ' "$MDDIR/run4.txt" && grep -q '^stats "results":[1-9]' "$MDDIR/run4.txt" ||
	{ echo "mode-word smoke: sw within streamed no rows"; cat "$MDDIR/run4.txt"; exit 1; }
for i in 1 2 3; do
	cmp -s "$MDDIR/run$i.txt" "$MDDIR/run4.txt" || {
		echo "mode-word smoke: hw within run $i differs from the sw run"
		diff "$MDDIR/run$i.txt" "$MDDIR/run4.txt" | head -10
		exit 1
	}
done
kill -TERM "$MDPID"
wait "$MDPID" || { echo "mode-word smoke server did not drain cleanly"; cat "$MDDIR/srv.log"; exit 1; }
MDPID=""
trap - EXIT
rm -rf "$MDDIR"

echo "== fuzz smoke (${FUZZTIME} each)"
go test ./internal/data/ -fuzz FuzzDataRead -fuzztime "$FUZZTIME"
go test ./internal/data/ -fuzz FuzzWKTParse -fuzztime "$FUZZTIME"
go test ./internal/geom/ -fuzz FuzzParsePolygonWKT -fuzztime "$FUZZTIME"
go test ./internal/store/ -fuzz FuzzSnapshotOpen -fuzztime "$FUZZTIME"
go test ./internal/store/ -fuzz FuzzIntervalSection -fuzztime "$FUZZTIME"
go test ./internal/wal/ -fuzz FuzzWALOpen -fuzztime "$FUZZTIME"
go test ./internal/dist/ -fuzz FuzzBoundaryWithin -fuzztime "$FUZZTIME"
go test ./internal/dist/ -fuzz FuzzMinDist -fuzztime "$FUZZTIME"
go test ./internal/raster/ -fuzz FuzzCoverageSuperset -fuzztime "$FUZZTIME"
go test ./internal/raster/ -fuzz FuzzSignaturesMayIntersect -fuzztime "$FUZZTIME"
go test ./internal/interval/ -fuzz FuzzRasterize -fuzztime "$FUZZTIME"
go test ./internal/interval/ -fuzz FuzzHilbert -fuzztime "$FUZZTIME"
go test ./internal/interval/ -fuzz FuzzSharedPartial -fuzztime "$FUZZTIME"
go test ./internal/interval/ -fuzz FuzzCompare -fuzztime "$FUZZTIME"
go test ./internal/coord/ -fuzz FuzzParseRow -fuzztime "$FUZZTIME"
go test ./internal/shellcmd/ -fuzz FuzzExec -fuzztime "$FUZZTIME"

echo "== all checks passed"
