// Package stats provides counters, latency accumulators and the text
// rendering helpers used to regenerate the paper's tables and figures.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n    int64
	name string
}

// SetName labels the counter so a misuse panic can identify it. The
// label is diagnostic-only: unnamed counters behave identically.
func (c *Counter) SetName(name string) { c.name = name }

// Name reports the counter's label ("" if unnamed).
func (c *Counter) Name() string { return c.name }

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta (which must be non-negative) to the counter.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		name := c.name
		if name == "" {
			name = "<unnamed>"
		}
		panic(fmt.Sprintf("stats: negative delta %d on counter %q (value %d)", delta, name, c.n))
	}
	c.n += delta
}

// Value reports the current count.
func (c *Counter) Value() int64 { return c.n }

// Latency accumulates sample latencies and reports summary statistics.
type Latency struct {
	count int64
	sum   int64
	min   int64
	max   int64
}

// Observe records one latency sample.
func (l *Latency) Observe(v int64) {
	if l.count == 0 || v < l.min {
		l.min = v
	}
	if l.count == 0 || v > l.max {
		l.max = v
	}
	l.count++
	l.sum += v
}

// Count reports the number of samples.
func (l *Latency) Count() int64 { return l.count }

// Sum reports the total of all samples.
func (l *Latency) Sum() int64 { return l.sum }

// Mean reports the average sample, or 0 with no samples.
func (l *Latency) Mean() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.sum) / float64(l.count)
}

// Min reports the smallest sample, or 0 with no samples.
func (l *Latency) Min() int64 { return l.min }

// Max reports the largest sample.
func (l *Latency) Max() int64 { return l.max }

// Geomean returns the geometric mean of xs, ignoring non-positive values.
func Geomean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Table renders aligned rows of labelled numeric columns, in the style of
// the paper's figures rendered as text.
type Table struct {
	Title   string
	Columns []string
	rows    []row
}

type row struct {
	label string
	cells []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of pre-formatted cells.
func (t *Table) AddRow(label string, cells ...string) {
	t.rows = append(t.rows, row{label: label, cells: cells})
}

// AddFloats appends a row formatting each value with the given precision.
func (t *Table) AddFloats(label string, prec int, vals ...float64) {
	cells := make([]string, len(vals))
	for i, v := range vals {
		cells[i] = fmt.Sprintf("%.*f", prec, v)
	}
	t.AddRow(label, cells...)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("benchmark")
	for _, r := range t.rows {
		if len(r.label) > widths[0] {
			widths[0] = len(r.label)
		}
	}
	for i, c := range t.Columns {
		widths[i+1] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r.cells {
			if i+1 < len(widths) && len(c) > widths[i+1] {
				widths[i+1] = len(c)
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0], "")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "  %*s", widths[i+1], c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", widths[0], r.label)
		for i, c := range r.cells {
			w := 0
			if i+1 < len(widths) {
				w = widths[i+1]
			}
			fmt.Fprintf(&b, "  %*s", w, c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
