package data

import (
	"bytes"
	"strings"
	"testing"
)

// fuzzLimits keeps fuzz iterations fast: the fuzzer's job is to find
// panics and invariant violations in the parsers, not to allocate
// gigabytes proving the default limits.
var fuzzLimits = Limits{MaxBytes: 1 << 16, MaxObjects: 256, MaxVerts: 1024}

// FuzzDataRead throws arbitrary bytes at the JSON dataset reader. The
// invariant is total: any input either parses into a dataset of valid,
// finite polygons or fails with an error — never a panic, and never a
// polygon that Validate rejects.
func FuzzDataRead(f *testing.F) {
	f.Add([]byte(`{"name":"x","objects":[[[0,0],[1,0],[1,1]]]}`))
	f.Add([]byte(`{"name":"x","objects":[[[0,0],[1,1]]]}`))          // too few verts
	f.Add([]byte(`{"name":"x","objects":[[[0,0],[1,0],[null,1]]]}`)) // null coord
	f.Add([]byte(`{"name":"","objects":[]}`))
	f.Add([]byte(`{"name":"x","objects":[[[1e999,0],[1,0],[1,1]]]}`)) // overflow → +Inf
	f.Add([]byte(`{"name":"x","objects":[[[0,0],[1,0],[1,1],[0,0],[0,0]]]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"oBjeCts":[[[],[],[0]]]}`)) // case-folded key, zero-area ring
	f.Add([]byte(`{"name":"x","objects":`))    // truncated
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := ReadLimits(bytes.NewReader(in), fuzzLimits)
		if err != nil {
			return
		}
		for i, p := range d.Objects {
			if err := p.Validate(); err != nil {
				t.Errorf("accepted object %d is invalid: %v", i, err)
			}
		}
		// A dataset that parsed must round-trip through Write.
		var buf bytes.Buffer
		if err := d.Write(&buf); err != nil {
			t.Errorf("accepted dataset failed to re-encode: %v", err)
		}
	})
}

// FuzzWKTParse throws arbitrary text at the WKT dataset reader with the
// same total invariant: error or valid finite polygons, never a panic.
func FuzzWKTParse(f *testing.F) {
	f.Add("POLYGON ((0 0, 1 0, 1 1, 0 0))")
	f.Add("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))\nPOLYGON ((5 5, 6 5, 6 6, 5 5))")
	f.Add("# comment\n\nPOLYGON ((0 0, 4 0, 4 4, 0 0))")
	f.Add("POLYGON ((NaN 0, 1 0, 1 1, 0 0))")
	f.Add("POLYGON ((Inf 0, 1 0, 1 1, 0 0))")
	f.Add("POLYGON ((1e999 0, 1 0, 1 1, 0 0))")
	f.Add("POLYGON ((0 0, 1 0))")
	f.Add("POLYGON (())")
	f.Add("POLYGON ((0 0, 1 0, 1 1, 0 0)") // unbalanced
	f.Add("LINESTRING (0 0, 1 1)")
	f.Add("POLYGON ((0 0, 0 0, 0 0, 0 0))") // zero area
	f.Add("polygon((0 0,1 0,1 1,0 0))")
	f.Fuzz(func(t *testing.T, in string) {
		d, err := ReadWKTLimits("fuzz", strings.NewReader(in), fuzzLimits)
		if err != nil {
			return
		}
		for i, p := range d.Objects {
			if err := p.Validate(); err != nil {
				t.Errorf("accepted object %d is invalid: %v", i, err)
			}
			// WKT output of an accepted polygon must re-parse cleanly.
			if _, err := ReadWKTLimits("roundtrip", strings.NewReader(p.WKT()), fuzzLimits); err != nil {
				t.Errorf("object %d does not round-trip: %v", i, err)
			}
		}
	})
}
