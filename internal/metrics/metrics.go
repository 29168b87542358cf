// Package metrics provides curve recording, moving averages, and text/CSV
// table rendering for the experiment harness.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Point is one (step, value) observation.
type Point struct {
	Step  int
	Value float64
}

// Curve is an ordered series of observations (e.g. accuracy per round).
type Curve struct {
	Name   string
	Points []Point
}

// Add appends an observation.
func (c *Curve) Add(step int, value float64) {
	c.Points = append(c.Points, Point{Step: step, Value: value})
}

// Len returns the number of observations.
func (c *Curve) Len() int { return len(c.Points) }

// Last returns the final value (0 if empty).
func (c *Curve) Last() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	return c.Points[len(c.Points)-1].Value
}

// Max returns the maximum value (−Inf if empty).
func (c *Curve) Max() float64 {
	m := math.Inf(-1)
	for _, p := range c.Points {
		if p.Value > m {
			m = p.Value
		}
	}
	return m
}

// Values returns the raw values in order.
func (c *Curve) Values() []float64 {
	out := make([]float64, len(c.Points))
	for i, p := range c.Points {
		out[i] = p.Value
	}
	return out
}

// MovingAverage returns a new curve smoothed with a trailing window (the
// paper's figures use a 50-step window).
func (c *Curve) MovingAverage(window int) Curve {
	if window < 1 {
		window = 1
	}
	out := Curve{Name: c.Name + fmt.Sprintf("(ma%d)", window)}
	sum := 0.0
	for i, p := range c.Points {
		sum += p.Value
		if i >= window {
			sum -= c.Points[i-window].Value
		}
		n := window
		if i+1 < window {
			n = i + 1
		}
		out.Add(p.Step, sum/float64(n))
	}
	return out
}

// TailMean returns the mean of the last n values — a stable "converged
// accuracy" readout for noisy curves.
func (c *Curve) TailMean(n int) float64 {
	if len(c.Points) == 0 {
		return 0
	}
	if n > len(c.Points) {
		n = len(c.Points)
	}
	sum := 0.0
	for _, p := range c.Points[len(c.Points)-n:] {
		sum += p.Value
	}
	return sum / float64(n)
}

// Table is a simple aligned text table with optional CSV export.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells (stringified as given).
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
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
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteString("\n")
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
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing commas
// are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(cell, `"`, `""`) + `"`)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float for table cells with sensible precision.
func F(v float64) string { return fmt.Sprintf("%.2f", v) }

// F4 formats a float with 4 decimal places.
func F4(v float64) string { return fmt.Sprintf("%.4f", v) }

// Pct formats a fraction as a percentage with 2 decimals.
func Pct(v float64) string { return fmt.Sprintf("%.2f", v*100) }
