package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: lib.Reached()}
	fmt.Println(s.Area())
}
