package faultinject

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDeterministicBySeed(t *testing.T) {
	pattern := func(seed int64) []bool {
		in := New(seed).Inject(SiteIntersects, KindPanic, 0.3)
		out := make([]bool, 200)
		for i := range out {
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(Panic); !ok {
							panic(r)
						}
						out[i] = true
					}
				}()
				in.Apply(SiteIntersects)
			}()
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical 200-call patterns")
	}
}

func TestRateZeroAndOne(t *testing.T) {
	in := New(1).
		Inject(SiteIntersects, KindPanic, 0).
		Inject(SiteWithinDistance, KindPanic, 1)
	for range 50 {
		in.Apply(SiteIntersects) // must never panic
	}
	panicked := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				_, panicked = r.(Panic)
			}
		}()
		in.Apply(SiteWithinDistance)
	}()
	if !panicked {
		t.Error("rate-1 panic rule did not fire")
	}
	if got := in.Fired(SiteWithinDistance, KindPanic); got != 1 {
		t.Errorf("Fired = %d, want 1", got)
	}
	if got := in.Fired(SiteIntersects, KindPanic); got != 0 {
		t.Errorf("rate-0 site fired %d times", got)
	}
}

func TestApproximateRate(t *testing.T) {
	in := New(7).Inject(SiteServerWrite, KindDisconnect, 0.25)
	fired := 0
	const n = 4000
	for range n {
		if in.Disconnect(SiteServerWrite) {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.20 || frac > 0.30 {
		t.Errorf("disconnect rate %.3f, want ≈0.25", frac)
	}
	if got := in.Fired(SiteServerWrite, KindDisconnect); got != int64(fired) {
		t.Errorf("Fired = %d, want %d", got, fired)
	}
}

// TestParseSpecSites: every Site constant declared in faultinject.go
// parses, and a site no hook fires — a misspelling, or the retired
// hardware-filter site — is an error naming it, so a spec never arms a
// fault that cannot strike.
func TestParseSpecSites(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "faultinject.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		for _, spec := range g.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if strings.HasPrefix(name.Name, "Site") {
					declared = append(declared, strings.Trim(vs.Values[i].(*ast.BasicLit).Value, `"`))
				}
			}
		}
	}
	if len(declared) != len(sites) {
		t.Errorf("faultinject.go declares %d sites, sites lists %d", len(declared), len(sites))
	}
	for _, site := range declared {
		if _, err := ParseSpec(1, site+"=delay:0.5"); err != nil {
			t.Errorf("declared site %s: %v", site, err)
		}
	}
	for _, site := range []string{"server.reed", "tester.hwfilter", ""} {
		_, err := ParseSpec(1, site+"=delay:0.1")
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown site %q", site)) {
			t.Errorf("site %q: err = %v, want an unknown-site error", site, err)
		}
	}
	for _, kind := range []string{"wrong-answer", "Kind(2)"} {
		if _, err := ParseSpec(1, SiteIntersects+"="+kind+":0.1"); err == nil {
			t.Errorf("kind %q parsed", kind)
		}
	}
}

func TestDelayFires(t *testing.T) {
	in := New(9).Inject(SiteRenderDraw, KindDelay, 1).SetDelay(5 * time.Millisecond)
	start := time.Now()
	in.Apply(SiteRenderDraw)
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("delay fault slept %v, want ≥ 5ms", elapsed)
	}
}

func TestConcurrentUseCountsEveryCall(t *testing.T) {
	in := New(3).Inject(SiteIntersects, KindDelay, 1).SetDelay(0)
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range per {
				in.Apply(SiteIntersects)
			}
		}()
	}
	wg.Wait()
	if got := in.Fired(SiteIntersects, KindDelay); got != workers*per {
		t.Errorf("fired %d delays, want %d", got, workers*per)
	}
}
