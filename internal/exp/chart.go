package exp

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"affinity/internal/xmath"
)

// Series is one named curve of a chart.
type Series struct {
	Name string
	X, Y []float64
}

// Chart renders numeric series as a text plot, so `paperfigs -charts`
// can show the *figures* of the evaluation, not just their tables.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	// LogY plots log10(y), appropriate for delay curves that explode at
	// saturation.
	LogY   bool
	Series []Series
}

// seriesMarkers distinguish curves in the plot grid.
var seriesMarkers = []byte{'*', 'o', '+', 'x', '#', '@'}

// Render draws the chart onto a width×height character grid (axes
// included). Points outside the positive domain are skipped under LogY.
func (c *Chart) Render(width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 6 {
		height = 6
	}
	// Gather bounds.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	ty := func(y float64) (float64, bool) {
		if c.LogY {
			if y <= 0 {
				return 0, false
			}
			return xmath.Log10(y), true
		}
		return y, true
	}
	for _, s := range c.Series {
		for i := range s.X {
			y, ok := ty(s.Y[i])
			if !ok {
				continue
			}
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, y)
			maxY = math.Max(maxY, y)
		}
	}
	if math.IsInf(minX, 1) {
		return c.Title + "\n(no plottable points)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	plot := func(x, y float64, marker byte) {
		col := int(math.Round((x - minX) / (maxX - minX) * float64(width-1)))
		row := height - 1 - int(math.Round((y-minY)/(maxY-minY)*float64(height-1)))
		if col < 0 || col >= width || row < 0 || row >= height {
			return
		}
		grid[row][col] = marker
	}
	for si, s := range c.Series {
		marker := seriesMarkers[si%len(seriesMarkers)]
		for i := range s.X {
			y, ok := ty(s.Y[i])
			if !ok {
				continue
			}
			plot(s.X[i], y, marker)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", c.Title)
	yTop, yBot := maxY, minY
	if c.LogY {
		yTop, yBot = xmath.Pow(10, maxY), xmath.Pow(10, minY)
	}
	axisLabel := func(v float64) string {
		return strconv.FormatFloat(v, 'g', 3, 64)
	}
	labelWidth := 9
	for r, row := range grid {
		label := strings.Repeat(" ", labelWidth)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", labelWidth, axisLabel(yTop))
		case height - 1:
			label = fmt.Sprintf("%*s", labelWidth, axisLabel(yBot))
		case height / 2:
			lbl := c.YLabel
			if c.LogY {
				lbl += " (log)"
			}
			if len(lbl) > labelWidth {
				lbl = lbl[:labelWidth]
			}
			label = fmt.Sprintf("%*s", labelWidth, lbl)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", labelWidth), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  %-*s%s\n", strings.Repeat(" ", labelWidth),
		width-len(axisLabel(maxX)), axisLabel(minX)+"  "+c.XLabel, axisLabel(maxX))
	var legend []string
	for si, s := range c.Series {
		legend = append(legend, fmt.Sprintf("%c %s", seriesMarkers[si%len(seriesMarkers)], s.Name))
	}
	fmt.Fprintf(&b, "%s  legend: %s\n", strings.Repeat(" ", labelWidth), strings.Join(legend, "   "))
	return b.String()
}

// ChartFromTable builds a chart from a sweep table: xCol gives the
// x-axis column index and yCols the series columns. Cells that do not
// parse as numbers (saturation markers, dashes) are skipped; a trailing
// '*' is stripped first so saturated points still plot.
func ChartFromTable(t *Table, xCol int, yCols ...int) *Chart {
	c := &Chart{
		Title:  fmt.Sprintf("%s — %s", t.ID, t.Title),
		XLabel: t.Columns[xCol],
		YLabel: "y",
	}
	for _, yc := range yCols {
		s := Series{Name: t.Columns[yc]}
		for _, row := range t.Rows {
			x, errX := parseCell(row[xCol])
			y, errY := parseCell(row[yc])
			if errX != nil || errY != nil {
				continue
			}
			s.X = append(s.X, x)
			s.Y = append(s.Y, y)
		}
		if len(s.X) > 0 {
			c.Series = append(c.Series, s)
		}
	}
	return c
}

func parseCell(cell string) (float64, error) {
	cell = strings.TrimSuffix(strings.TrimSpace(cell), "*")
	cell = strings.TrimSuffix(cell, "%")
	// A leading '>' marks a clamped quantile (the histogram's upper
	// bound, a lower bound on the true value); plot the bound rather
	// than dropping the point and leaving a hole in the curve.
	cell = strings.TrimPrefix(cell, ">")
	return strconv.ParseFloat(cell, 64)
}

// DefaultChart returns the natural chart for a sweep experiment's table,
// or nil for tables that are not rate/size sweeps. It is what
// `paperfigs -charts` renders.
func DefaultChart(t *Table) *Chart {
	spec, ok := chartSpecs[t.ID]
	if !ok {
		return nil
	}
	c := ChartFromTable(t, spec.x, spec.ys...)
	c.YLabel = spec.ylabel
	c.LogY = spec.logY
	return c
}

type chartSpec struct {
	x      int
	ys     []int
	ylabel string
	logY   bool
}

// chartSpecs maps sweep experiments to their natural axes.
var chartSpecs = map[string]chartSpec{
	"E2":  {0, []int{1, 2}, "fraction", false},
	"E3":  {0, []int{1}, "µs", false},
	"E5":  {0, []int{1, 2}, "delay µs", true},
	"E6":  {0, []int{1, 2, 3, 4}, "delay µs", true},
	"E7":  {0, []int{1, 2, 3}, "delay µs", true},
	"E10": {0, []int{1, 2}, "delay µs", true},
	"E11": {0, []int{1, 2, 3}, "delay µs", true},
	"E13": {0, []int{1, 2}, "delay µs", true},
	"E14": {0, []int{1}, "delay µs", true},
	"E17": {0, []int{1, 2}, "delay µs", true},
	"E18": {0, []int{1, 2, 3}, "delay µs", true},
	"E21": {0, []int{1, 2}, "delay µs", true},
	"E27": {0, []int{1, 3}, "drop %", false},
}
