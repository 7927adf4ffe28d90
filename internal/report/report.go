// Package report renders experiment results: aligned text tables, CSV,
// scaling-efficiency math, and small ASCII charts for terminal inspection.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-aligned result table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Failed is the cell text of a value that a failed point left undefined.
// Experiments mark such a value as NaN, and AddRow renders NaN as Failed,
// so a failed point never reads as a number.
const Failed = "failed"

// AddRow appends a row; each cell is formatted with %v, except float64
// cells, which get a precision by magnitude and render NaN as Failed.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
			continue
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return Failed
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// Write renders the table as aligned text.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Write(&b)
	return b.String()
}

// CSV renders the table as comma-separated values (RFC-4180 quoting for
// cells containing commas or quotes).
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Headers)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
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

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Efficiency computes scaling efficiency in percent for a timing series.
//
// For fixed-size problems: E(p) = T(p0)*p0 / (T(p)*p) * 100.
// For scaled problems (work per process constant): E(p) = T(p0)/T(p) * 100.
// p0 is the first point of the series (the paper normalizes Sweep3D to its
// 4-process point in Figure 5 the same way).
type Efficiency struct {
	Scaled bool
}

// Compute returns the efficiency (percent) per point given process counts
// and times (seconds or any consistent unit). A NaN time (a failed point)
// gives NaN efficiency, and a NaN first time makes every point NaN: a
// value normalised against a failed point is failed too.
func (e Efficiency) Compute(procs []int, times []float64) []float64 {
	if len(procs) != len(times) || len(procs) == 0 {
		panic("report: mismatched efficiency series")
	}
	out := make([]float64, len(procs))
	p0 := float64(procs[0])
	t0 := times[0]
	for i := range procs {
		if times[i] <= 0 {
			out[i] = 0
			continue
		}
		if e.Scaled {
			out[i] = t0 / times[i] * 100
		} else {
			out[i] = t0 * p0 / (times[i] * float64(procs[i])) * 100
		}
	}
	return out
}

// ASCIIChart renders series as a crude log-x scatter chart for terminal
// inspection of curve shapes. Each series is drawn with its own glyph.
type ASCIIChart struct {
	Width, Height int
	LogX          bool
	series        []chartSeries
}

type chartSeries struct {
	name  string
	glyph byte
	xs    []float64
	ys    []float64
}

// NewASCIIChart creates a chart canvas.
func NewASCIIChart(width, height int, logX bool) *ASCIIChart {
	return &ASCIIChart{Width: width, Height: height, LogX: logX}
}

// Add registers a series.
func (c *ASCIIChart) Add(name string, glyph byte, xs, ys []float64) {
	c.series = append(c.series, chartSeries{name, glyph, xs, ys})
}

// String renders the chart.
func (c *ASCIIChart) String() string {
	if len(c.series) == 0 {
		return "(empty chart)\n"
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	tx := func(x float64) float64 {
		if c.LogX && x > 0 {
			return math.Log2(x)
		}
		return x
	}
	for _, s := range c.series {
		for i := range s.xs {
			x, y := tx(s.xs[i]), s.ys[i]
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, c.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", c.Width))
	}
	for _, s := range c.series {
		for i := range s.xs {
			col := int((tx(s.xs[i]) - xmin) / (xmax - xmin) * float64(c.Width-1))
			row := int((s.ys[i] - ymin) / (ymax - ymin) * float64(c.Height-1))
			row = c.Height - 1 - row
			if col >= 0 && col < c.Width && row >= 0 && row < c.Height {
				grid[row][col] = s.glyph
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "y: [%.4g, %.4g]\n", ymin, ymax)
	for _, line := range grid {
		b.WriteString("|")
		b.Write(line)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", c.Width) + "\n")
	fmt.Fprintf(&b, "x: [%.4g, %.4g]", xminOrig(c, xmin), xminOrig(c, xmax))
	if c.LogX {
		b.WriteString(" (log2 scale)")
	}
	b.WriteString("\nlegend:")
	for _, s := range c.series {
		fmt.Fprintf(&b, " %c=%s", s.glyph, s.name)
	}
	b.WriteString("\n")
	return b.String()
}

func xminOrig(c *ASCIIChart, v float64) float64 {
	if c.LogX {
		return math.Pow(2, v)
	}
	return v
}

// ChartFromTable builds an ASCII chart from a result table whose first
// column is numeric (the x axis); every further numeric column becomes a
// series. Returns nil if the table has no plottable data.
func ChartFromTable(t *Table, width, height int, logX bool) *ASCIIChart {
	if len(t.Rows) == 0 || len(t.Headers) < 2 {
		return nil
	}
	parse := func(s string) (float64, bool) {
		var v float64
		n, err := fmt.Sscanf(strings.TrimPrefix(s, "$"), "%g", &v)
		return v, err == nil && n == 1
	}
	var xs []float64
	for _, row := range t.Rows {
		x, ok := parse(row[0])
		if !ok {
			return nil
		}
		xs = append(xs, x)
	}
	chart := NewASCIIChart(width, height, logX)
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}
	added := 0
	for col := 1; col < len(t.Headers); col++ {
		var ys []float64
		ok := true
		for _, row := range t.Rows {
			if col >= len(row) {
				ok = false
				break
			}
			v, good := parse(row[col])
			if !good {
				ok = false
				break
			}
			ys = append(ys, v)
		}
		if !ok {
			continue
		}
		chart.Add(t.Headers[col], glyphs[added%len(glyphs)], xs, ys)
		added++
	}
	if added == 0 {
		return nil
	}
	return chart
}
