package raster

import "testing"

func TestASCII(t *testing.T) {
	c := NewContext(3, 2)
	c.A[1] |= 1 << 0 // top-left in window coords
	c.A[0] |= 1 << 2
	c.B[0] |= 1<<2 | 1<<1
	got := c.ASCII()
	want := "/..\n.\\#\n"
	if got != want {
		t.Errorf("ASCII =\n%q, want\n%q", got, want)
	}
}
