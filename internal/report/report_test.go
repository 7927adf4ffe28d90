package report

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("short", 1)
	tb.AddRow("a-much-longer-name", 123456.789)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "== demo ==") {
		t.Fatalf("missing title: %q", lines[0])
	}
	if !strings.Contains(out, "123457") {
		t.Fatalf("large float misformatted:\n%s", out)
	}
}

func TestCSVQuoting(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("plain", `with "quote", comma`)
	csv := tb.CSV()
	want := `plain,"with ""quote"", comma"`
	if !strings.Contains(csv, want) {
		t.Fatalf("CSV = %q, want substring %q", csv, want)
	}
}

// TestFailedValues: NaN marks a failed point. It renders as Failed, and an
// efficiency computed from it, or normalised against it, stays NaN.
func TestFailedValues(t *testing.T) {
	tb := NewTable("", "x", "a", "b")
	tb.AddRow(1, math.NaN(), 0.0)
	if got := tb.Rows[0]; got[1] != Failed || got[2] != "0" {
		t.Fatalf("row = %q, want [1 %s 0]", got, Failed)
	}
	for _, scaled := range []bool{false, true} {
		e := Efficiency{Scaled: scaled}
		eff := e.Compute([]int{1, 2, 4}, []float64{8, math.NaN(), 2})
		if math.IsNaN(eff[0]) || !math.IsNaN(eff[1]) || math.IsNaN(eff[2]) {
			t.Fatalf("scaled=%v: efficiency %v, want only the failed point NaN", scaled, eff)
		}
		for i, v := range e.Compute([]int{1, 2}, []float64{math.NaN(), 4}) {
			if !math.IsNaN(v) {
				t.Fatalf("scaled=%v: point %d normalised against a failed point reads %v", scaled, i, v)
			}
		}
	}
}

func TestEfficiencyFixed(t *testing.T) {
	e := Efficiency{Scaled: false}
	// Perfect fixed-size scaling: T halves as P doubles.
	eff := e.Compute([]int{1, 2, 4}, []float64{8, 4, 2})
	for i, v := range eff {
		if v < 99.99 || v > 100.01 {
			t.Fatalf("point %d: eff %.2f, want 100", i, v)
		}
	}
	// 50%-efficient last point.
	eff = e.Compute([]int{1, 4}, []float64{8, 4})
	if eff[1] < 49.9 || eff[1] > 50.1 {
		t.Fatalf("eff = %.1f, want 50", eff[1])
	}
}

func TestEfficiencyScaled(t *testing.T) {
	e := Efficiency{Scaled: true}
	eff := e.Compute([]int{1, 8, 64}, []float64{10, 10, 12.5})
	if eff[0] != 100 || eff[1] != 100 {
		t.Fatalf("flat scaled run should be 100%%: %v", eff)
	}
	if eff[2] < 79.9 || eff[2] > 80.1 {
		t.Fatalf("eff = %.1f, want 80", eff[2])
	}
}

func TestEfficiencySuperlinear(t *testing.T) {
	e := Efficiency{Scaled: false}
	eff := e.Compute([]int{1, 4}, []float64{10, 2}) // 5x speedup on 4 procs
	if eff[1] <= 100 {
		t.Fatalf("superlinear point should exceed 100%%: %.1f", eff[1])
	}
}

func TestEfficiencyNormalizesToFirstPoint(t *testing.T) {
	// Figure 5 style: series starting at 4 processes normalizes there.
	e := Efficiency{Scaled: false}
	eff := e.Compute([]int{4, 16}, []float64{4, 1.25})
	if eff[0] != 100 {
		t.Fatalf("first point should be 100%%: %v", eff)
	}
	if eff[1] < 79.9 || eff[1] > 80.1 {
		t.Fatalf("eff = %.1f, want 80", eff[1])
	}
}

// Property: efficiency of the first point is always 100 for positive times.
func TestEfficiencyFirstPointProperty(t *testing.T) {
	f := func(times []uint16, scaled bool) bool {
		if len(times) == 0 {
			return true
		}
		procs := make([]int, len(times))
		ts := make([]float64, len(times))
		for i := range times {
			procs[i] = 1 << uint(i%7)
			ts[i] = float64(times[i]%1000) + 1
		}
		eff := Efficiency{Scaled: scaled}.Compute(procs, ts)
		return eff[0] > 99.99 && eff[0] < 100.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestASCIIChart(t *testing.T) {
	c := NewASCIIChart(40, 10, true)
	c.Add("a", '*', []float64{1, 2, 4, 8}, []float64{1, 2, 3, 4})
	c.Add("b", 'o', []float64{1, 2, 4, 8}, []float64{4, 3, 2, 1})
	out := c.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("glyphs missing:\n%s", out)
	}
	if !strings.Contains(out, "legend: *=a o=b") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "log2 scale") {
		t.Fatalf("log note missing:\n%s", out)
	}
}

func TestASCIIChartEmpty(t *testing.T) {
	c := NewASCIIChart(10, 5, false)
	if !strings.Contains(c.String(), "empty") {
		t.Fatal("empty chart should say so")
	}
}

func TestChartFromTable(t *testing.T) {
	tb := NewTable("eff", "nodes", "Elan", "IB")
	tb.AddRow(1, 100.0, 100.0)
	tb.AddRow(8, 95.0, 90.0)
	tb.AddRow(32, 93.0, 84.0)
	c := ChartFromTable(tb, 40, 10, true)
	if c == nil {
		t.Fatal("chart not built")
	}
	out := c.String()
	if !strings.Contains(out, "legend: *=Elan o=IB") {
		t.Fatalf("legend missing:\n%s", out)
	}
}

func TestChartFromTableNonNumeric(t *testing.T) {
	tb := NewTable("cfg", "name", "value")
	tb.AddRow("alpha", "beta")
	if ChartFromTable(tb, 40, 10, false) != nil {
		t.Fatal("non-numeric table should not chart")
	}
}

func TestChartFromTableDollarColumns(t *testing.T) {
	tb := NewTable("cost", "nodes", "price")
	tb.AddRow(8, "$14030")
	tb.AddRow(64, "$3661")
	c := ChartFromTable(tb, 30, 8, true)
	if c == nil {
		t.Fatal("dollar columns should parse")
	}
}

func TestChartFromTableMixedColumns(t *testing.T) {
	tb := NewTable("mixed", "n", "num", "text")
	tb.AddRow(1, 5.0, "hello")
	tb.AddRow(2, 6.0, "world")
	c := ChartFromTable(tb, 30, 8, false)
	if c == nil {
		t.Fatal("numeric column should chart")
	}
	if strings.Contains(c.String(), "text") {
		t.Fatal("text column should be skipped")
	}
}
