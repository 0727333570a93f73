package main

import (
	"strings"
	"testing"
)

// TestFixture runs the walk over testdata/mod: one program, one library
// package holding a reached function, an unreached one, an unreached one
// under //reach:keep (with a helper only it calls), and a method reached
// only through an interface.
func TestFixture(t *testing.T) {
	res, err := analyze("testdata/mod", []string{"cmd"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name            string
		unreached, kept bool
	}{
		{"lib.Reached", false, false},
		{"lib.helper", false, false},
		{"lib.Unreached", true, false},
		{"lib.Kept", false, true},
		{"lib.onlyKeptCalls", false, false},
		{"lib.Square.Area", false, false},
	} {
		has := func(list []string) bool {
			for _, l := range list {
				if strings.Contains(l, " "+tc.name+" ") {
					return true
				}
			}
			return false
		}
		if got := has(res.unreached); got != tc.unreached {
			t.Errorf("%s: listed unreached = %v, want %v", tc.name, got, tc.unreached)
		}
		if got := has(res.kept); got != tc.kept {
			t.Errorf("%s: listed kept = %v, want %v", tc.name, got, tc.kept)
		}
	}
	if len(res.unreached) != 1 || len(res.kept) != 1 {
		t.Errorf("unreached %v, kept %v: want exactly lib.Unreached and lib.Kept", res.unreached, res.kept)
	}
}
