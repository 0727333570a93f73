package main

import (
	"strings"
	"testing"
)

// TestFixture runs the walk over testdata/mod: one program and one library
// package with a planted case of each thing reach reports — an unreached
// function, a field only a test sets, a dead method sharing a live
// method's name on another reached type, a keep naming a missing test —
// beside the live look-alikes it must not report: a kept function (with a
// helper only it calls), a method reached only through an interface, and
// fields written only through their address, by slicing, or by a
// pointer-method call.
func TestFixture(t *testing.T) {
	res, err := analyze("testdata/mod", []string{"cmd"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                          string
		unreached, unset, kept, stale bool
	}{
		{"lib.Reached", false, false, false, false},
		{"lib.helper", false, false, false, false},
		{"lib.Unreached", true, false, false, false},
		{"lib.Kept", false, false, true, false},
		{"lib.onlyKeptCalls", false, false, false, false},
		{"lib.Stale", false, false, true, true},
		{"lib.Square.Area", false, false, false, false},
		{"lib.Square.Grow", false, false, false, false},
		{"lib.Circle.Grow", true, false, false, false},
		{"lib.Counter.N", false, false, false, false},
		{"lib.Counter.Buf", false, false, false, false},
		{"lib.Counter.Mu", false, false, false, false},
		{"lib.Counter.Debug", false, true, false, false},
	} {
		has := func(list []string) bool {
			for _, l := range list {
				if strings.Contains(l, " "+tc.name+" ") || strings.HasSuffix(l, " "+tc.name) {
					return true
				}
			}
			return false
		}
		for _, c := range []struct {
			list []string
			what string
			want bool
		}{
			{res.unreached, "unreached", tc.unreached},
			{res.unset, "unset", tc.unset},
			{res.kept, "kept", tc.kept},
			{res.badKeeps, "keeping for no test", tc.stale},
		} {
			if got := has(c.list); got != c.want {
				t.Errorf("%s: listed %s = %v, want %v", tc.name, c.what, got, c.want)
			}
		}
	}
	if len(res.unreached) != 2 || len(res.unset) != 1 || len(res.kept) != 2 || len(res.badKeeps) != 1 {
		t.Errorf("unreached %v, unset %v, kept %v, bad keeps %v: want exactly the planted cases",
			res.unreached, res.unset, res.kept, res.badKeeps)
	}
}
