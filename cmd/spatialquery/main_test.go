package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
)

// TestMainChild is not a test of its own: re-executed by runMain with
// spatialquery's arguments after a "--", it runs main() on them so the
// parent can observe the real exit code.
func TestMainChild(t *testing.T) {
	i := slices.Index(os.Args, "--")
	if i < 0 {
		t.Skip("helper for runMain")
	}
	os.Args = append([]string{"spatialquery"}, os.Args[i+1:]...)
	main()
}

func runMain(t *testing.T, args ...string) (exit int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestMainChild$", "--"}, args...)...)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), errBuf.String()
}

// TestThresholdValidated: a negative -threshold is a usage error before
// any dataset is opened; 0 (every pair on the card) passes validation and
// fails later, on the missing file.
func TestThresholdValidated(t *testing.T) {
	exit, stderr := runMain(t, "-threshold", "-1", "-a", "no-such-a.json", "-b", "no-such-b.json")
	if exit != 2 || !strings.Contains(stderr, "-threshold -1 is negative") || strings.Contains(stderr, "no-such") {
		t.Errorf("-threshold -1: exit %d, stderr %q; want exit 2 before any dataset opens", exit, stderr)
	}
	if exit, stderr := runMain(t, "-threshold", "0", "-a", "no-such-a.json", "-b", "no-such-b.json"); exit != 1 || !strings.Contains(stderr, "no-such-a.json") {
		t.Errorf("-threshold 0: exit %d, stderr %q; want exit 1 on the missing file", exit, stderr)
	}
}

// TestResolutionValidated: a -res the window cannot have is a usage error,
// reported before any dataset is opened (the paths do not exist; reaching
// them would exit 1 with a file error).
func TestResolutionValidated(t *testing.T) {
	for _, res := range []string{"0", "65", "-8", "100000"} {
		exit, stderr := runMain(t, "-res", res, "-a", "no-such-a.json", "-b", "no-such-b.json")
		if exit != 2 || !strings.Contains(stderr, "-res "+res+" outside 1..64") {
			t.Errorf("-res %s: exit %d, stderr %q; want exit 2 naming the range", res, exit, stderr)
		}
		if strings.Contains(stderr, "no-such") {
			t.Errorf("-res %s: a dataset was opened first: %q", res, stderr)
		}
	}
	// The bounds themselves pass validation and fail later, on the file.
	for _, res := range []string{"1", "64"} {
		if exit, stderr := runMain(t, "-res", res, "-a", "no-such-a.json", "-b", "no-such-b.json"); exit != 1 || !strings.Contains(stderr, "no-such-a.json") {
			t.Errorf("-res %s: exit %d, stderr %q; want exit 1 on the missing file", res, exit, stderr)
		}
	}
}

// TestEachRunGetsItsOwnTimeout: -timeout limits each run, so a software
// run that spends most of it leaves the hardware run a full -timeout, not
// the rest.
func TestEachRunGetsItsOwnTimeout(t *testing.T) {
	const timeout = 200 * time.Millisecond
	var left []time.Duration
	run := func(ctx context.Context, _ *core.Tester) (int, query.Stats, error) {
		if deadline, ok := ctx.Deadline(); ok {
			left = append(left, time.Until(deadline))
		}
		time.Sleep(timeout * 3 / 4)
		return 1, query.Stats{}, nil
	}
	compare(run, timeout, core.Config{Resolution: 8}, false)
	if len(left) != 2 {
		t.Fatalf("%d of the 2 runs had a deadline", len(left))
	}
	for i, d := range left {
		if d < timeout/2 {
			t.Errorf("run %d started with %v of the %v timeout left", i+1, d, timeout)
		}
	}
}
