package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: lib.Reached()}.Grow(2)
	var c lib.Counter
	fmt.Println(s.Area(), lib.Circle{R: 1}, c.Bump())
}
