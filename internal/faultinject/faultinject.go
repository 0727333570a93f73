// Package faultinject provides deterministic fault injection for the
// refinement pipeline, the server, the coordinator and the durability
// path. Tests install an Injector into core.Config (or the server's,
// coordinator's or log's configuration) to make instrumented calls panic,
// stall, disconnect, crash or fail their I/O, with every decision a pure
// function of the injector's seed and the per-site call sequence. That
// determinism is what lets the resilience tests assert exact degradation
// semantics: the same seed replays the same fault schedule.
//
// # Trust boundary
//
// The engine compensates for every refinement fault this package
// injects: a panicking test is quarantined and retried on the software
// path and a delay only costs time, so a completed query's result set is
// exactly the software-only result set. The one verdict nothing
// re-checks is the card's negative: conservative rasterization (paper
// §2.2) makes it exact, and the served verbs refine in software, so no
// served query consults the card at all. A card that broke that guarantee
// would silently drop results — no oracle cheaper than the software test
// could catch it — so there is no site at which to inject such a lie; see
// DESIGN.md §5.
package faultinject

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind enumerates the fault classes an Injector can produce.
type Kind int

const (
	// KindPanic makes the instrumented call panic with a Panic value.
	KindPanic Kind = iota
	// KindDelay makes the instrumented call sleep for the injector's
	// configured delay before proceeding.
	KindDelay
	// kindRetired is the number of a kind no site consults any more. It
	// keeps the later kinds' numbers, which fires hashes, so a logged seed
	// still replays the schedule it produced.
	kindRetired
	// KindDisconnect makes the network server drop the connection at the
	// instrumented protocol site (mid-response, mid-read). Only the
	// server's Disconnect checks consult it.
	KindDisconnect
	// KindCrash kills the whole process with CrashExitCode at the
	// instrumented durability site. Only the WriteFault checks in the WAL
	// and compactor consult it; the crash-recovery harness re-execs the
	// process and verifies the ack contract afterwards.
	KindCrash
	// KindShortWrite makes the instrumented write persist only a prefix of
	// its buffer (a torn write). Only WriteFault checks consult it.
	KindShortWrite
	// KindIOError makes the instrumented I/O call report failure (modeling
	// an fsync or write error from the kernel). Only WriteFault checks
	// consult it.
	KindIOError

	numKinds
)

// String names the kind for error messages and test output.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindDisconnect:
		return "disconnect"
	case KindCrash:
		return "crash"
	case KindShortWrite:
		return "short-write"
	case KindIOError:
		return "io-error"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Hook sites instrumented by the engine. Sites are plain strings so that
// packages below core (internal/raster) can fire hooks without importing
// this package.
const (
	// SiteIntersects fires at the top of Tester.Intersects, before any
	// counter is touched, so a panicking test is never half-counted.
	SiteIntersects = "tester.intersects"
	// SiteWithinDistance fires at the top of Tester.WithinDistance.
	SiteWithinDistance = "tester.withindistance"
	// SiteRenderDraw fires once per rasterized segment (mid-test), stored
	// into a plane or tested against one: the hook point for faults that
	// strike after counters moved. raster/line.go fires it by its literal,
	// since raster does not import this package.
	SiteRenderDraw = "raster.draw"

	// Server protocol sites, instrumented by internal/server's TCP
	// sessions. Delay faults model slow networks and slow clients; panic
	// faults model session-handler bugs (the server must contain them);
	// disconnect faults model clients vanishing mid-exchange.
	//
	// SiteServerAccept fires once per accepted connection, before the
	// session greets the client.
	SiteServerAccept = "server.accept"
	// SiteServerRead fires before each command read (a delay here is a
	// slow client holding a session open).
	SiteServerRead = "server.read"
	// SiteServerWrite fires per response line as it is written; a
	// disconnect here severs the connection mid-response.
	SiteServerWrite = "server.write"

	// Durability sites, instrumented by internal/wal and the ingest
	// compactor. Crash faults here model power loss at the exact
	// instruction; short writes model torn appends; io-errors model the
	// kernel failing an fsync. The crash-recovery harness arms each in
	// turn and verifies the ack contract across a process kill.
	//
	// SiteWALWrite fires before a group-commit batch is written to the
	// active segment (crash = batch lost before it hit the file).
	SiteWALWrite = "wal.write"
	// SiteWALFsync fires after the batch write, before fsync (crash =
	// batch in the page cache only, legitimately lost: nothing acked).
	SiteWALFsync = "wal.fsync"
	// SiteWALFsynced fires after fsync succeeds, before the waiters are
	// acked (crash = durable but unacked; recovery may surface it).
	SiteWALFsynced = "wal.fsynced"
	// SiteWALRotate fires when the log opens a fresh segment file.
	SiteWALRotate = "wal.rotate"
	// SiteCompactSave fires before the compactor writes the new snapshot
	// generation.
	SiteCompactSave = "compact.save"
	// SiteCompactPublish fires after the snapshot rename, before the live
	// table swaps to the new generation.
	SiteCompactPublish = "compact.publish"
	// SiteCompactTruncate fires after the swap, before WAL truncation
	// (crash = stale-but-idempotent WAL records survive).
	SiteCompactTruncate = "compact.truncate"

	// Coordinator sites, instrumented by internal/coord's shard clients.
	// Delay faults model slow shards, panic faults model client bugs, and
	// disconnect faults model shard connections dying — each must degrade
	// to a typed partial result, never a hang or a wrong answer.
	//
	// SiteCoordDial fires before each shard dial attempt (disconnect =
	// dial refused).
	SiteCoordDial = "coord.dial"
	// SiteCoordRead fires before each response line read from a shard
	// (disconnect = connection severed mid-response).
	SiteCoordRead = "coord.read"
	// SiteCoordShardDown fires once per tile sub-query; a disconnect
	// marks the whole tile — every replica — unreachable for that query,
	// modeling a correlated outage. Failover cannot route around it.
	SiteCoordShardDown = "coord.shard_down"
	// SiteCoordReplicaDown fires once per replica attempt; a disconnect
	// fails just that attempt, so a replicated tile fails over to its
	// next replica while an unreplicated one degrades to a typed
	// partial — the seam the failover chaos tests drive.
	SiteCoordReplicaDown = "coord.replica_down"
	// SiteCoordProbe fires before each background health probe; a
	// disconnect fails the probe, opening the replica's breaker as if
	// the process were unreachable.
	SiteCoordProbe = "coord.probe"
)

// sites lists every site the program instruments: ParseSpec arms no other,
// so a misspelt site is an error rather than a fault that never fires.
var sites = []string{
	SiteIntersects, SiteWithinDistance, SiteRenderDraw,
	SiteServerAccept, SiteServerRead, SiteServerWrite,
	SiteWALWrite, SiteWALFsync, SiteWALFsynced, SiteWALRotate,
	SiteCompactSave, SiteCompactPublish, SiteCompactTruncate,
	SiteCoordDial, SiteCoordRead, SiteCoordShardDown, SiteCoordReplicaDown, SiteCoordProbe,
}

// CrashExitCode is the status a KindCrash fault exits the process with,
// so harnesses can tell an injected crash from a genuine failure.
const CrashExitCode = 86

// Crash kills the process the way an injected KindCrash fault does.
// Exposed so callers that must die after partial work (e.g. a torn write)
// share the exit code with WriteFault-driven crashes.
func Crash() {
	os.Exit(CrashExitCode)
}

// Panic is the value thrown by an injected KindPanic fault; recovery code
// can assert the type to distinguish scheduled faults from genuine bugs.
type Panic struct {
	Site string
	Seq  uint64 // the site-local call number that fired
}

// Error makes Panic usable as an error when callers convert the recovered
// value.
func (p Panic) Error() string {
	return fmt.Sprintf("faultinject: injected panic at %s (call %d)", p.Site, p.Seq)
}

type rule struct {
	kind Kind
	rate float64
	// seq, when ≥ 0, pins the rule to exactly one site-local call number
	// (the crash harness uses this to kill the process at the n-th fsync,
	// not a random one). Negative means probabilistic by rate.
	seq int64
}

// Injector decides, deterministically by seed and per-site call count,
// which instrumented calls fault. The zero value is unusable; build with
// New. An Injector is safe for concurrent use by many testers; decisions
// stay deterministic in aggregate (the n-th call at a site always gets the
// same verdict), though which goroutine makes the n-th call depends on
// scheduling.
type Injector struct {
	seed  int64
	delay time.Duration

	mu    sync.Mutex
	rules map[string][]rule
	seq   map[string]uint64
	fired map[string]map[Kind]int64
}

// New builds an empty injector: no sites fault until Inject is called.
func New(seed int64) *Injector {
	return &Injector{
		seed:  seed,
		delay: time.Millisecond,
		rules: map[string][]rule{},
		seq:   map[string]uint64{},
		fired: map[string]map[Kind]int64{},
	}
}

// Seed returns the seed every decision derives from. Harnesses log it at
// startup so any observed run can be replayed exactly.
func (in *Injector) Seed() int64 { return in.seed }

// Inject arms a fault kind at a site with the given firing probability in
// [0, 1]. Rate 1 fires on every call. Returns the injector for chaining.
func (in *Injector) Inject(site string, kind Kind, rate float64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[site] = append(in.rules[site], rule{kind: kind, rate: rate, seq: -1})
	return in
}

// InjectAt arms a fault kind that fires on exactly the seq-th call at the
// site (0-based) and never otherwise. The crash harness iterates seq to
// kill the process at every instrumented point in turn.
func (in *Injector) InjectAt(site string, kind Kind, seq uint64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[site] = append(in.rules[site], rule{kind: kind, rate: 1, seq: int64(seq)})
	return in
}

// SetDelay sets the stall duration of KindDelay faults (default 1ms).
//
//reach:keep fault probe: TestShutdownDrainsPartialResults, TestWatchdogKillReleasesAdmissionSlot, TestSoak and TestAcceptanceFaultedJoinUnderDeadline size their injected stalls with it
func (in *Injector) SetDelay(d time.Duration) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.delay = d
	return in
}

// Fired returns how many faults of the kind have fired at the site.
//
//reach:keep fault probe: TestFaultSlowClient, TestShutdownDrainsPartialResults, TestSoak and TestFailoverMidStreamReadFaultNoDuplicates assert an armed fault actually struck
func (in *Injector) Fired(site string, kind Kind) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[site][kind]
}

// decide advances the site's call counter and returns which kinds fire on
// this call, plus the call number and the configured delay.
func (in *Injector) decide(site string) (kinds []Kind, seq uint64, delay time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	seq = in.seq[site]
	in.seq[site] = seq + 1
	for _, r := range in.rules[site] {
		hit := false
		if r.seq >= 0 {
			hit = uint64(r.seq) == seq
		} else {
			hit = fires(in.seed, site, r.kind, seq, r.rate)
		}
		if hit {
			kinds = append(kinds, r.kind)
			m := in.fired[site]
			if m == nil {
				m = map[Kind]int64{}
				in.fired[site] = m
			}
			m[r.kind]++
		}
	}
	return kinds, seq, in.delay
}

// Apply evaluates the site's panic and delay rules for this call: it
// sleeps first if a delay fires (outside the injector lock, so stalls
// overlap across workers), then panics with a Panic value if a panic
// fires. Other kinds' rules count as fired but take no effect here.
func (in *Injector) Apply(site string) {
	kinds, seq, delay := in.decide(site)
	doPanic := false
	for _, k := range kinds {
		switch k {
		case KindDelay:
			time.Sleep(delay)
		case KindPanic:
			doPanic = true
		}
	}
	if doPanic {
		panic(Panic{Site: site, Seq: seq})
	}
}

// Disconnect reports whether a disconnect fault fires at the site on this
// call. Panic and delay rules armed at the same site also take effect, in
// Apply order (delay, then panic). The server's
// session loop consults it at the protocol sites and severs the
// connection on true.
func (in *Injector) Disconnect(site string) bool {
	return in.check(site, KindDisconnect)
}

// IOFault reports which durability faults fired at a site on one call.
// Callers act on the fields in torn-write order: a short write persists a
// prefix, a crash kills the process, an error is reported to the writer.
type IOFault struct {
	Crash bool // KindCrash fired: kill the process (faultinject.Crash)
	Short bool // KindShortWrite fired: persist only a prefix
	Err   bool // KindIOError fired: report the operation as failed
}

// Any reports whether any durability fault fired.
func (f IOFault) Any() bool { return f.Crash || f.Short || f.Err }

// WriteFault evaluates the site's rules for one durability operation and
// reports which crash/short-write/io-error kinds fired; delay and panic
// rules armed at the same site take their usual side effects first. One
// call advances the site's sequence once, so a crash pinned to call n via
// InjectAt lines up with the n-th instrumented operation.
func (in *Injector) WriteFault(site string) IOFault {
	kinds, seq, delay := in.decide(site)
	var f IOFault
	doPanic := false
	for _, k := range kinds {
		switch k {
		case KindDelay:
			time.Sleep(delay)
		case KindPanic:
			doPanic = true
		case KindCrash:
			f.Crash = true
		case KindShortWrite:
			f.Short = true
		case KindIOError:
			f.Err = true
		}
	}
	if doPanic {
		panic(Panic{Site: site, Seq: seq})
	}
	return f
}

// check evaluates the site's rules for this call, applying delay and
// panic side effects, and reports whether the wanted kind fired.
func (in *Injector) check(site string, want Kind) bool {
	kinds, seq, delay := in.decide(site)
	hit, doPanic := false, false
	for _, k := range kinds {
		switch {
		case k == KindDelay:
			time.Sleep(delay)
		case k == KindPanic:
			doPanic = true
		case k == want:
			hit = true
		}
	}
	if doPanic {
		panic(Panic{Site: site, Seq: seq})
	}
	return hit
}

// ParseSpec builds an injector from a single seed and a textual fault
// specification of the form
//
//	site=kind:rate[@seq][,site=kind:rate...]
//
// e.g. "tester.intersects=panic:0.01,server.read=delay:0.05", or with
// the @seq suffix "wal.fsync=crash:1@3" to fire on exactly the fourth
// call at the site (the crash harness's per-point targeting; the rate is
// then ignored). The site must be one the program instruments (the Site
// constants) and kind names match Kind.String(). The whole schedule
// derives from the one seed, which callers should log so runs are
// reproducible. An empty spec yields an armed-nothing injector.
func ParseSpec(seed int64, spec string) (*Injector, error) {
	in := New(seed)
	if spec == "" {
		return in, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, rest, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: bad spec entry %q: want site=kind:rate", part)
		}
		site = strings.TrimSpace(site)
		if !slices.Contains(sites, site) {
			return nil, fmt.Errorf("faultinject: bad spec entry %q: unknown site %q (want one of %s)", part, site, strings.Join(sites, ", "))
		}
		kindName, rateStr, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: bad spec entry %q: want site=kind:rate", part)
		}
		kind, err := parseKind(strings.TrimSpace(kindName))
		if err != nil {
			return nil, fmt.Errorf("faultinject: bad spec entry %q: %w", part, err)
		}
		rateStr = strings.TrimSpace(rateStr)
		seqStr := ""
		if r, s, ok := strings.Cut(rateStr, "@"); ok {
			rateStr, seqStr = strings.TrimSpace(r), strings.TrimSpace(s)
		}
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil || rate < 0 || rate > 1 {
			return nil, fmt.Errorf("faultinject: bad rate in spec entry %q: want a number in [0,1]", part)
		}
		if seqStr != "" {
			seq, err := strconv.ParseUint(seqStr, 10, 63)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad @seq in spec entry %q: want a non-negative integer", part)
			}
			in.InjectAt(site, kind, seq)
		} else {
			in.Inject(site, kind, rate)
		}
	}
	return in, nil
}

// parseKind inverts Kind.String.
func parseKind(name string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if k != kindRetired && k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown fault kind %q (want panic, delay, disconnect, crash, short-write or io-error)", name)
}

// Hook adapts the injector to the raster package's hook field
// (func(site string)), so render-path faults can be armed without raster
// importing this package.
func (in *Injector) Hook() func(site string) {
	return in.Apply
}

// fires is the deterministic decision function: a splitmix64-style hash of
// (seed, site, kind, call number) mapped to [0, 1) and compared to rate.
func fires(seed int64, site string, kind Kind, seq uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := uint64(seed) ^ hashString(site) ^ (seq*uint64(numKinds) + uint64(kind))
	h = splitmix64(h)
	u := float64(h>>11) / float64(1<<53)
	return u < rate
}

// hashString is FNV-1a, inlined to keep the package dependency-free.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// splitmix64 is the standard 64-bit finalizer used as a stateless PRNG.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
