package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.BenchOnly()) }
