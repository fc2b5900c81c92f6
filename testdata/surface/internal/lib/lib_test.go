package lib

import "testing"

func TestKept(t *testing.T) {
	if Kept()+TestOnly() != 7 {
		t.Fatal("sum")
	}
}
