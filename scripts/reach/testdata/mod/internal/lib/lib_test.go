package lib

import "testing"

func TestKept(t *testing.T) {
	if Kept() != 3 {
		t.Fatal("Kept")
	}
}

func TestDebug(t *testing.T) {
	c := Counter{Debug: true}
	if c.Bump() != 0 {
		t.Fatal("Debug")
	}
}
