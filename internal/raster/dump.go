package raster

import "strings"

// ASCII renders the window as one text row per pixel row, top row first
// (window y grows upward, so row H-1 prints first): '.' for a pixel
// covered in neither plane, '/' in plane A only, '\\' in plane B only,
// '#' in both.
func (c *Context) ASCII() string {
	var sb strings.Builder
	sb.Grow((c.w + 1) * c.h)
	for y := c.h - 1; y >= 0; y-- {
		for x := range c.w {
			ch := byte('.')
			switch a, b := c.A.At(x, y), c.B.At(x, y); {
			case a && b:
				ch = '#'
			case a:
				ch = '/'
			case b:
				ch = '\\'
			}
			sb.WriteByte(ch)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
