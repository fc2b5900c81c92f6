package textplot

import (
	"strings"
	"testing"
)

func TestChartBasic(t *testing.T) {
	s := []Series{
		{Name: "linear", X: []float64{1, 2, 3, 4}, Y: []float64{1, 2, 3, 4}},
		{Name: "flat", X: []float64{1, 2, 3, 4}, Y: []float64{2, 2, 2, 2}},
	}
	out := Chart("test chart", s, 40, 10, true)
	if !strings.Contains(out, "test chart") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "linear") || !strings.Contains(out, "flat") {
		t.Error("legend missing")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("series markers missing")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 13 {
		t.Errorf("chart too short: %d lines", len(lines))
	}
}

func TestChartEmpty(t *testing.T) {
	out := Chart("empty", nil, 40, 10, false)
	if !strings.Contains(out, "no data") {
		t.Error("empty chart should say so")
	}
}

func TestChartDegenerateRange(t *testing.T) {
	s := []Series{{Name: "point", X: []float64{5}, Y: []float64{7}}}
	out := Chart("single point", s, 30, 8, false)
	if !strings.Contains(out, "*") {
		t.Error("single point not plotted")
	}
}

func TestChartClampsTinyDimensions(t *testing.T) {
	s := []Series{{Name: "p", X: []float64{0, 1}, Y: []float64{0, 1}}}
	out := Chart("tiny", s, 1, 1, false)
	if len(out) == 0 {
		t.Error("tiny chart empty")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Headers: []string{"a", "long-header", "c"},
		Rows: [][]string{
			{"1", "x", "yy"},
			{"222", "y", "z"},
		},
	}
	out := tab.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "long-header") {
		t.Error("render incomplete")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("%d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		Headers: []string{"x", "y"},
		Rows:    [][]string{{"a,b", `say "hi"`}, {"plain", "2"}},
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"a,b"`) {
		t.Error("comma cell not quoted")
	}
	if !strings.Contains(csv, `"say ""hi"""`) {
		t.Error("quote cell not escaped")
	}
	if !strings.HasPrefix(csv, "x,y\n") {
		t.Error("header row missing")
	}
}
