// Package span is the benchmark's in-memory span recorder. The traced
// stage replay (bench/layers) records one span around every call it
// makes into a layer; spans of one replay share a run id, are kept in
// memory, and are written out once when the replay ends. The package
// imports nothing from the repository so the end-to-end runner and its
// tests can use it too.
package span

import (
	"encoding/json"
	"os"
	"time"
)

// Span is one timed interval. Start and End are nanoseconds since the
// recorder was created; Parent is the id of the span that caused this
// one (-1 for the root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder collects the spans of one run. It follows call nesting:
// Push opens a child of the innermost open span and Pop closes it, so
// it must be driven from a single goroutine (the replay's master).
type Recorder struct {
	Run   string
	t0    time.Time
	spans []Span
	open  []int
}

// New starts a recorder for the run id.
func New(run string) *Recorder {
	return &Recorder{Run: run, t0: time.Now(), spans: make([]Span, 0, 1<<16)}
}

// Push opens a span named name under the innermost open span. On a nil
// recorder Push and Pop do nothing, so an untraced run takes the same
// code path as a traced one.
func (r *Recorder) Push(name string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
}

// Pop closes the innermost open span.
func (r *Recorder) Pop() {
	if r == nil {
		return
	}
	n := len(r.open)
	r.spans[r.open[n-1]].End = int64(time.Since(r.t0))
	r.open = r.open[:n-1]
}

// Spans returns the recorded spans in start order.
func (r *Recorder) Spans() []Span { return r.spans }

// SelfTimes returns, per span id, the span's duration minus the part
// its children cover. Children of one parent never overlap (Push/Pop
// nesting), so the covered part is the sum of their durations, and the
// self times of a tree of spans add up to the root's duration.
func SelfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	for _, s := range spans {
		d := s.End - s.Start
		self[s.ID] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

// Totals sums duration, self time and count by span name.
type Totals struct {
	Count  int
	Dur    int64
	SelfNs int64
}

// ByName aggregates spans by name.
func ByName(spans []Span) map[string]Totals {
	self := SelfTimes(spans)
	out := make(map[string]Totals)
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Dur += s.End - s.Start
		t.SelfNs += self[s.ID]
		out[s.Name] = t
	}
	return out
}

// WriteFile writes the run's spans as one JSON document.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Run   string `json:"run"`
		Spans []Span `json:"spans"`
	}{r.Run, r.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
