package core

import "sync/atomic"

// BreakerState is the observable state of a hardware-filter circuit
// breaker.
type BreakerState int32

const (
	// BreakerClosed: the hardware filter is trusted and in use.
	BreakerClosed BreakerState = iota
	// BreakerOpen: a sentinel disagreement proved the conservative-
	// rasterization invariant broken; every pair is routed through the
	// exact software path until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; exactly one pair is allowed
	// to probe the hardware filter under forced sentinel verification.
	BreakerHalfOpen

	// breakerProbing is the internal claimed-probe state: one pair holds
	// the half-open probe and everyone else stays on the software path
	// until it reports. Externally reported as BreakerHalfOpen.
	breakerProbing
)

// String names the state for logs and test output.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// DefaultBreakerCooldown is how many pair tests an open breaker routes to
// software before allowing a half-open probe. Count-based (not
// wall-clock) so fault schedules and tests are deterministic.
const DefaultBreakerCooldown = 512

// Breaker is the per-layer-pair circuit breaker guarding the hardware
// filter's negative verdicts. The sentinel verifier (see Tester) re-checks
// a sample of hardware rejects against the exact software test; a
// disagreement means the conservative-rasterization invariant the whole
// design rests on is broken for this pair population, so the breaker
// opens and the Tester routes every subsequent pair through exact
// software refinement. After Cooldown() software-routed pairs the breaker
// half-opens and admits a single probe pair back to the hardware filter
// under forced verification: agreement closes the breaker, disagreement
// re-opens it for another cooldown.
//
// All state is atomic; one Breaker is shared by every worker refining the
// same layer pair (it travels in PairContext).
type Breaker struct {
	cooldown int64
	state    atomic.Int32
	denied   atomic.Int64 // software-routed pairs since the breaker opened
}

// NewBreaker builds a closed breaker; cooldownPairs <= 0 means
// DefaultBreakerCooldown.
func NewBreaker(cooldownPairs int) *Breaker {
	if cooldownPairs <= 0 {
		cooldownPairs = DefaultBreakerCooldown
	}
	return &Breaker{cooldown: int64(cooldownPairs)}
}

// State reports the breaker's current state (a claimed probe reports as
// half-open). A nil breaker is permanently closed.
//
//reach:keep fault probe: core's breaker tests and query's TestBreakerTripsJoinBitIdentical follow the state machine through it
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	s := BreakerState(b.state.Load())
	if s == breakerProbing {
		return BreakerHalfOpen
	}
	return s
}

// Allow is consulted once per pair test that would use the hardware
// filter. useHW reports whether the filter may run; probe reports that
// this pair holds the half-open probe and must be sentinel-verified
// regardless of sampling. A pair that claims the probe but bails out
// before a hardware verdict must call ProbeAbort. A nil breaker always
// allows, so unguarded PairContexts keep the plain fast path.
func (b *Breaker) Allow() (useHW, probe bool) {
	if b == nil {
		return true, false
	}
	for {
		switch BreakerState(b.state.Load()) {
		case BreakerClosed:
			return true, false
		case BreakerOpen:
			if b.denied.Add(1) >= b.cooldown {
				b.state.CompareAndSwap(int32(BreakerOpen), int32(BreakerHalfOpen))
				continue // re-read: this pair may claim the probe
			}
			return false, false
		case BreakerHalfOpen:
			if b.state.CompareAndSwap(int32(BreakerHalfOpen), int32(breakerProbing)) {
				return true, true
			}
			continue // lost the claim race; re-read the state
		default: // breakerProbing
			return false, false
		}
	}
}

// Trip opens the breaker after a sentinel disagreement, from any state.
// It reports whether this call performed the transition (so exactly one
// caller counts the trip when workers race).
func (b *Breaker) Trip() bool {
	if b == nil {
		return false
	}
	for {
		s := b.state.Load()
		if BreakerState(s) == BreakerOpen {
			return false
		}
		if b.state.CompareAndSwap(s, int32(BreakerOpen)) {
			b.denied.Store(0)
			return true
		}
	}
}

// ProbeSuccess closes the breaker after a verified half-open probe. It
// reports whether this call performed the transition.
func (b *Breaker) ProbeSuccess() bool {
	if b == nil {
		return false
	}
	return b.state.CompareAndSwap(int32(breakerProbing), int32(BreakerClosed))
}

// ProbeAbort releases a claimed probe that resolved without a hardware
// verdict (width fallback, empty candidate sets), returning the breaker
// to half-open so the next pair can probe instead.
func (b *Breaker) ProbeAbort() {
	if b == nil {
		return
	}
	b.state.CompareAndSwap(int32(breakerProbing), int32(BreakerHalfOpen))
}
