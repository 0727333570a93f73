package main

import (
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/server"
)

// The two overload lines a client meets: the server's own admission
// refusal, and a shard's refusal a coordinator passes on when every
// answering tile refused.
var (
	serverOverload = "error: " + (&server.OverloadError{Limit: 4, Queued: 2, RetryAfter: 150 * time.Millisecond}).Error()
	coordOverload  = "error: " + (&coord.ShardBusyError{Tile: 3, RetryAfter: 2 * time.Second}).Error()
)

// TestOverloadIsRetried: both overload lines are retried; other errors,
// partial answers and ok are not, even when their text says "overloaded".
func TestOverloadIsRetried(t *testing.T) {
	for _, tc := range []struct {
		status string
		retry  bool
	}{
		{serverOverload, true},
		{coordOverload, true},
		{"error: overloaded: 4 queries in flight", true},
		{"ok", false},
		{"partial: join: 3/4 shards: coord: shard 1 overloaded; retry after 1s", false},
		{`error: unknown layer "overloaded"`, false},
		{"error: coord: shard 1 (127.0.0.1:7001): dial tcp: connection refused", false},
		{"error: shutting down", false},
	} {
		if got := overloadRe.MatchString(tc.status); got != tc.retry {
			t.Errorf("retry %q = %v, want %v", tc.status, got, tc.retry)
		}
	}
}

// TestRetryDelay: on both overload lines the delay is the longer of the
// exponential backoff and the line's hint, jittered to [¾, 1¼] of it, and
// the backoff doubles up to its 10 s cap.
func TestRetryDelay(t *testing.T) {
	for _, tc := range []struct {
		status  string
		backoff time.Duration
		base    time.Duration // the delay before jitter
		next    time.Duration // the backoff afterwards
	}{
		{serverOverload, 250 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond}, // hint 150ms is shorter
		{serverOverload, 50 * time.Millisecond, 150 * time.Millisecond, 100 * time.Millisecond},  // hint wins
		{coordOverload, 250 * time.Millisecond, 2 * time.Second, 500 * time.Millisecond},         // hint wins
		{coordOverload, 8 * time.Second, 8 * time.Second, 10 * time.Second},                      // backoff wins, capped
		{"error: overloaded: 4 queries in flight", time.Second, time.Second, 2 * time.Second},    // no hint
	} {
		for range 50 {
			backoff := tc.backoff
			d := retryDelay(tc.status, &backoff)
			if d < tc.base*3/4 || d > tc.base*5/4 {
				t.Fatalf("retryDelay(%q, %v) = %v, want within [%v, %v]", tc.status, tc.backoff, d, tc.base*3/4, tc.base*5/4)
			}
			if backoff != tc.next {
				t.Fatalf("retryDelay(%q, %v) left backoff %v, want %v", tc.status, tc.backoff, backoff, tc.next)
			}
		}
	}
}
