package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the harness must agree with.
type contract struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	t.Setenv("TMPDIR", t.TempDir())
	return config{workload: workload, seed: 1, seconds: 0.6, trace: trace, scale: 0.1, setups: 2,
		out: filepath.Join(t.TempDir(), "out.json"), commit: "test", maxWall: time.Minute}
}

// TestSmoke runs every workload BENCHMARK.json names at a tenth of the
// reference size, untraced and traced: every operation must match the
// oracle, the metrics emitted must be exactly the ones BENCHMARK.json
// lists with its units, the span file must parse with well-formed parent
// links, and nothing may be left running or listening (run reports a
// leftover goroutine or listener as a failed operation).
func TestSmoke(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/untraced"
			want := c.EndToEnd
			if trace {
				name, want = w.Name+"/traced", c.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := smokeConfig(t, w.Name, trace)
				res, err := run(context.Background(), cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, got.Value)
					}
				}
				checkSummary(t, cfg.out, trace)
			})
		}
	}
}

func checkSummary(t *testing.T, path string, trace bool) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s summary
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if s.Claim != nil || s.GoVersion == "" || s.GOMAXPROCS < 1 {
		t.Errorf("summary: claim=%v go=%q gomaxprocs=%d", s.Claim, s.GoVersion, s.GOMAXPROCS)
	}
	if trace && len(s.Spans) == 0 {
		t.Error("traced run wrote no spans")
	}
	for i, sp := range s.Spans {
		if sp.ID != i || sp.EndNS < sp.StartNS {
			t.Fatalf("span %d: id %d, start %d, end %d", i, sp.ID, sp.StartNS, sp.EndNS)
		}
		if sp.Parent == -1 {
			continue
		}
		if sp.Parent < 0 || sp.Parent >= i {
			t.Fatalf("span %d (%s): parent %d is not an earlier span", i, sp.Name, sp.Parent)
		}
		if p := s.Spans[sp.Parent]; p.Request != sp.Request {
			t.Fatalf("span %d (%s, request %d): parent %s belongs to request %d", i, sp.Name, sp.Request, p.Name, p.Request)
		}
	}
}

// TestWrongOracle is the negative test. An oracle count that is off by
// one stops the run in the warm-up (main exits non-zero without a result);
// a wrong count the warm-up does not see — a duplicate of a request it
// already checked — fails in the timed phase, and the run reports its
// metrics with failed operations and correct=false (main exits 1).
func TestWrongOracle(t *testing.T) {
	cfg := smokeConfig(t, "join_single", false)
	wl := workloads[cfg.workload]
	in, err := makeInputs(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	in.cycle[1].count++
	if _, err := runWith(context.Background(), cfg, wl, in, t.TempDir(), io.Discard); err == nil {
		t.Error("warm-up accepted a wrong answer")
	}

	if in, err = makeInputs(cfg, wl); err != nil {
		t.Fatal(err)
	}
	wrong := in.cycle[1]
	wrong.count++
	in.cycle = append(in.cycle, wrong)
	res, err := runWith(context.Background(), cfg, wl, in, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed >= res.Attempted {
		t.Errorf("correct=%v attempted=%d failed=%d, want an incorrect run with some failures", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) == 0 {
		t.Error("a failed run must still report its metrics")
	}
}

// TestPerLayerTable pins the harness's per-layer table to BENCHMARK.json's
// order, so the two cannot drift apart unnoticed.
func TestPerLayerTable(t *testing.T) {
	c := readContract(t)
	var got, want []string
	for _, pl := range perLayer {
		got = append(got, pl.name)
	}
	for _, pl := range c.PerLayer {
		want = append(want, pl.Name)
	}
	if len(got) != len(want) {
		t.Fatalf("harness lists %d per-layer metrics, BENCHMARK.json %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("per-layer metric %d: harness %s, BENCHMARK.json %s", i, got[i], want[i])
		}
	}
}
