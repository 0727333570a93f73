package query

import (
	"context"
	"fmt"
	"time"
)

// BudgetError reports a query that failed fast because MBR filtering
// produced more candidates than the configured budget allows — the guard
// against pathological MBR skew (one enormous object overlapping
// everything) turning a join into an OOM. The query performed no
// refinement work; rerun with a larger budget or better-filtered inputs.
type BudgetError struct {
	Op         string // "join", "within-join", "select", ...
	Candidates int    // candidates seen when the budget tripped
	Budget     int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("query: %s aborted: MBR filtering exceeded the %d-candidate budget", e.Op, e.Budget)
}

// PartialError reports a query interrupted by context cancellation or
// deadline expiry. The results returned alongside it are valid but
// incomplete: Done of Total refinement units (candidate objects or pairs)
// were fully processed before the interruption. It unwraps to the
// context's error, so errors.Is(err, context.Canceled) and
// context.DeadlineExceeded work as expected.
type PartialError struct {
	Op    string
	Done  int // refinement units completed
	Total int
	Err   error // the context's error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("query: %s interrupted after %d/%d refinements: %v", e.Op, e.Done, e.Total, e.Err)
}

func (e *PartialError) Unwrap() error { return e.Err }

// DeadlineError reports a query that exhausted its wall-clock budget. It
// is installed as the cancellation *cause* of deadline-governed contexts
// (context.WithTimeoutCause), so it surfaces inside a PartialError's Err
// chain with the budget that was exceeded, while still unwrapping to
// context.DeadlineExceeded for callers matching on the standard sentinel.
type DeadlineError struct {
	Budget time.Duration // the wall-clock budget that was exhausted
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("query: wall-clock budget %v exhausted", e.Budget)
}

func (e *DeadlineError) Unwrap() error { return context.DeadlineExceeded }

// ctxCause resolves the error a PartialError should carry for an
// interrupted context: the cancellation cause when one was supplied (a
// *DeadlineError from deadline governance, a watchdog's stuck-query
// error), else the plain context error. Falling back matters: Cause
// returns nil for a context that is not yet done, and equals Err() for
// causeless cancellations, so this never loses the sentinel errors.
func ctxCause(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return ctx.Err()
}
