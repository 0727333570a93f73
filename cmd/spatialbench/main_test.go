package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUsageErrorsRunNothing: a bad name, scale or repeat count is rejected
// before any dataset is generated — exit 2, one line, no -json file.
func TestUsageErrorsRunNothing(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "table2,bogus"},
		{"-exp", ""},
		{"-scale", "3"},
		{"-scale", "-0.1"},
		{"-scale", "0"},
		{"-scale", "NaN"},
		{"-repeats", "0"},
		{"-exp", "table2", "stray"},
		{"-no-such-flag"},
	} {
		path := filepath.Join(t.TempDir(), "out.json")
		code, stdout, stderr := runCmd(append([]string{"-json", path}, args...)...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 having run nothing", args, code, stdout, stderr)
		}
		if !strings.Contains(args[0], "flag") && strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: error is not one line: %q", args, stderr)
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%v: -json file written on a usage error", args)
		}
	}
}

func readReport(t *testing.T, path string) report {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return rep
}

func TestRepeatsAndJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	code, stdout, stderr := runCmd("-exp", "table2,fig13", "-scale", "0.005", "-repeats", "2", "-json", path)
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "n=2") || strings.Contains(stdout, "n=1 ") || !strings.Contains(stdout, "repeats=2") {
		t.Errorf("summary does not show two repeats per point:\n%s", stdout)
	}
	rep := readReport(t, path)
	if rep.Env.Repeats != 2 || rep.Env.Scale != 0.005 || rep.Env.GoVersion == "" || rep.Env.NumCPU < 1 {
		t.Errorf("env = %+v", rep.Env)
	}
	perPoint := map[string]int{}
	for _, rec := range rep.Records {
		perPoint[rec.Experiment+" "+rec.Workload+" "+rec.Tester+" "+rec.Param] += rec.Repeat
	}
	if len(perPoint) != 5+21 {
		t.Errorf("%d points, want 26", len(perPoint))
	}
	for point, sum := range perPoint {
		if sum != 1+2 {
			t.Errorf("%s: repeats sum to %d, want repeat 1 and repeat 2", point, sum)
		}
	}
}

// TestTimeoutKeepsWhatItMeasured: an expired -timeout exits 1 only after
// the profiles are flushed and the completed experiments written.
func TestTimeoutKeepsWhatItMeasured(t *testing.T) {
	dir := t.TempDir()
	js, cpu, mem := filepath.Join(dir, "out.json"), filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	code, stdout, stderr := runCmd("-exp", "table2,fig12,fig13", "-scale", "0.005", "-repeats", "2",
		"-timeout", "1ns", "-json", js, "-cpuprofile", cpu, "-memprofile", mem)
	if code != 1 || !strings.Contains(stderr, "interrupted") {
		t.Fatalf("exit %d, stderr %q; want 1 and the interruption", code, stderr)
	}
	if !strings.Contains(stdout, "fig12 interrupted") || !strings.Contains(stdout, "table2") {
		t.Errorf("stdout:\n%s", stdout)
	}
	rep := readReport(t, js)
	if len(rep.Records) != 2*5 {
		t.Errorf("%d records kept, want table2's 10", len(rep.Records))
	}
	for _, rec := range rep.Records {
		if rec.Experiment != "table2" {
			t.Errorf("record of interrupted %s written", rec.Experiment)
		}
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty after an interrupted run (%v)", filepath.Base(p), err)
		}
	}
}
