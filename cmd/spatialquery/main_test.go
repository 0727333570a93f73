package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
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
