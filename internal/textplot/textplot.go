// Package textplot renders simple ASCII line charts and tables for the
// figure generators: the reproduction's figures are emitted as text so
// they diff cleanly and display anywhere.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named curve of (x, y) points.
type Series struct {
	Name string
	X, Y []float64
}

// markers cycles through per-series point glyphs.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Chart renders the series into a width×height character grid with
// axis labels. X and Y ranges cover all series; Y may be forced to
// start at zero with zeroY.
func Chart(title string, series []Series, width, height int, zeroY bool) string {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		return title + "\n(no data)\n"
	}
	if zeroY {
		minY = 0
	}
	if maxY == minY {
		maxY = minY + 1
	}
	if maxX == minX {
		maxX = minX + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	plot := func(x, y float64, mark byte) {
		cx := int(math.Round((x - minX) / (maxX - minX) * float64(width-1)))
		cy := int(math.Round((y - minY) / (maxY - minY) * float64(height-1)))
		row := height - 1 - cy
		if row < 0 || row >= height || cx < 0 || cx >= width {
			return
		}
		grid[row][cx] = mark
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i := range s.X {
			plot(s.X[i], s.Y[i], m)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for r, row := range grid {
		yVal := maxY - (maxY-minY)*float64(r)/float64(height-1)
		fmt.Fprintf(&b, "%10.2f |%s\n", yVal, string(row))
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%10s  %-*.4g%*.4g\n", "", width/2, minX, width-width/2, maxX)
	for si, s := range series {
		fmt.Fprintf(&b, "    %c %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// Table renders rows as a fixed-width text table with a header.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Render formats the table with column alignment.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quotes cells that
// need them).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
