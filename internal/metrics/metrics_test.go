package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestCurveBasics(t *testing.T) {
	var c Curve
	if c.Last() != 0 {
		t.Error("empty curve Last should be 0")
	}
	c.Add(1, 0.5)
	c.Add(2, 0.8)
	c.Add(3, 0.7)
	if c.Len() != 3 || c.Last() != 0.7 || c.Max() != 0.8 {
		t.Errorf("Len/Last/Max = %d/%v/%v", c.Len(), c.Last(), c.Max())
	}
	vals := c.Values()
	if len(vals) != 3 || vals[1] != 0.8 {
		t.Errorf("Values = %v", vals)
	}
}

func TestMovingAverage(t *testing.T) {
	var c Curve
	for i, v := range []float64{1, 2, 3, 4} {
		c.Add(i, v)
	}
	ma := c.MovingAverage(2)
	want := []float64{1, 1.5, 2.5, 3.5}
	for i, p := range ma.Points {
		if math.Abs(p.Value-want[i]) > 1e-12 {
			t.Errorf("ma[%d] = %v, want %v", i, p.Value, want[i])
		}
	}
	// window 1 is identity
	id := c.MovingAverage(1)
	for i, p := range id.Points {
		if p.Value != c.Points[i].Value {
			t.Error("window-1 moving average must be identity")
		}
	}
}

func TestTailMean(t *testing.T) {
	var c Curve
	for i, v := range []float64{0.1, 0.2, 0.9, 0.8} {
		c.Add(i*10, v)
	}
	if got := c.TailMean(2); math.Abs(got-0.85) > 1e-12 {
		t.Errorf("TailMean(2) = %v", got)
	}
	if got := c.TailMean(100); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("TailMean(all) = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"Method", "Err"}}
	tb.AddRow("ours", "2.62")
	tb.AddRow("darts-long-name", "3.00")
	s := tb.String()
	if !strings.Contains(s, "Method") || !strings.Contains(s, "darts-long-name") {
		t.Errorf("table render missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4+0 { // title + header + sep + 2 rows = 5? title separate
		// title, header, separator, two rows
		if len(lines) != 5 {
			t.Errorf("table has %d lines:\n%s", len(lines), s)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Headers: []string{"a", "b"}}
	tb.AddRow("x,y", `q"u`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Errorf("comma cell not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"q""u"`) {
		t.Errorf("quote cell not escaped: %s", csv)
	}
}

func TestFormatters(t *testing.T) {
	if F(1.234) != "1.23" {
		t.Errorf("F = %s", F(1.234))
	}
	if F4(1.23456) != "1.2346" {
		t.Errorf("F4 = %s", F4(1.23456))
	}
	if Pct(0.0262) != "2.62" {
		t.Errorf("Pct = %s", Pct(0.0262))
	}
}
