package main

import (
	"fmt"

	"fixture"
	"fixture/internal/lib"
)

func main() {
	fmt.Println(fixture.Run().Value(), lib.Check(nil))
}
