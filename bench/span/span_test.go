package span

import (
	"testing"
	"time"
)

// Self times of a span tree add up to the root span's duration, and a
// parent's self time excludes exactly what its children cover.
func TestSelfTimesSumToRoot(t *testing.T) {
	r := New("run")
	r.Push("root")
	for i := 0; i < 3; i++ {
		r.Push("stage")
		for j := 0; j < 4; j++ {
			r.Push("post")
			time.Sleep(200 * time.Microsecond)
			r.Pop()
		}
		time.Sleep(300 * time.Microsecond)
		r.Pop()
	}
	r.Pop()
	spans := r.Spans()
	if len(spans) != 1+3+12 {
		t.Fatalf("%d spans, want 16", len(spans))
	}
	self := SelfTimes(spans)
	var sum int64
	for id, s := range self {
		if s < 0 {
			t.Errorf("span %d (%s) has negative self time %d", id, spans[id].Name, s)
		}
		sum += s
	}
	if root := spans[0].End - spans[0].Start; sum != root {
		t.Errorf("self times sum to %d ns, root span lasted %d ns", sum, root)
	}
	by := ByName(spans)
	if by["post"].Count != 12 || by["stage"].Count != 3 || by["root"].Count != 1 {
		t.Errorf("counts by name: %+v", by)
	}
	if by["post"].SelfNs != by["post"].Dur {
		t.Error("a leaf span's self time must be its duration")
	}
	if got, want := by["stage"].SelfNs, by["stage"].Dur-by["post"].Dur; got != want {
		t.Errorf("stage self time %d, want duration minus children %d", got, want)
	}
	for _, s := range spans[1:] {
		if p := spans[s.Parent]; s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d is not inside its parent", s.ID)
		}
	}
}
