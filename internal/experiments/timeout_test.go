package experiments

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/sweep3d"
	"repro/internal/ib"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/sim"
)

// TestTimedOutSweepLeavesNoGoroutines: a sweep whose simulations run past
// the timeout stops them. Each point fails with the timeout, and once the
// sweep returns the goroutine count is back at its baseline — no
// simulation keeps running after its point was given up. (Run to the end,
// each of these simulations takes seconds.)
func TestTimedOutSweepLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	params := sweep3d.Default(192)
	o := Options{Jobs: 2, Timeout: 20 * time.Millisecond}
	res := &Result{ID: "sweep"}
	times := runSeries(o, res, "", platform.Networks, []int{16}, []int{1},
		func(r *mpi.Rank) { sweep3d.Run(r, params) })
	fails := res.Failures
	if len(fails) != len(platform.Networks) {
		t.Fatalf("%d failures, want every point to time out: %+v", len(fails), fails)
	}
	for _, f := range fails {
		if !strings.Contains(f.Cause, "exceeded timeout 20ms") {
			t.Fatalf("failure cause %q, want the timeout", f.Cause)
		}
	}
	for k, v := range times {
		if !math.IsNaN(v) {
			t.Fatalf("failed point %+v reads %v, want NaN", k, v)
		}
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second after the sweep, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailedPointsRenderFailed: an experiment whose every simulation times
// out still returns its tables. It records every point's failure and
// renders each cell a simulation measures, and each value derived from one
// (an efficiency, a ratio), as "failed" — never as 0 or any other number.
func TestFailedPointsRenderFailed(t *testing.T) {
	cases := []struct {
		id     string
		points int
	}{
		{"fig4", 6},
		{"fig1a", 2},
		{"fig1b", 4},
		{"fig1c", 4}, // fig1b's points, whose failed cells make failed ratios
		{"fig1d", 4},
		{"xreg", 4},
		{"xoverlap", 6},
		{"xfault", 18},
		{"xroute", 5},
		{"xattrib", 3},
		{"xnoise", 4},
		{"xloggp", 4},
		{"fig2", 12},
		{"fig3", 12},
		{"fig5", 6},
		{"fig6", 12},
		{"fig8", 12},
		{"xscale", 16}, // fig8's 12 points and the 4 it checks the fit against
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			e, err := Get(c.id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(Options{Quick: true, Timeout: time.Nanosecond})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Failures) != c.points {
				t.Fatalf("%d failures, want all %d points", len(res.Failures), c.points)
			}
			// Every column but the first (the sweep coordinate) is measured.
			for _, tb := range res.Tables {
				for _, row := range tb.Rows {
					for _, cell := range row[1:] {
						if cell != report.Failed {
							t.Errorf("%s: row %v has cell %q, want %q", tb.Title, row, cell, report.Failed)
						}
					}
				}
			}
		})
	}
}

// TestTrendFitSkipsOnlyFailedSeries: fig8 fits each series of the
// membrane grid on its own. Under heavy loss the IB points die by retry
// exhaustion and Elan's link-level retry carries its points through, so
// the IB columns and notes read failed, never NaN, and the Elan series is
// still fitted and projected.
func TestTrendFitSkipsOnlyFailedSeries(t *testing.T) {
	e, err := Get("fig8")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(Options{Quick: true, Faults: "loss:all:p=0.3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("no point failed: the plan no longer kills the IB series")
	}
	for _, f := range res.Failures {
		if !strings.HasPrefix(f.Job, "IB ") || !errors.Is(f.Err, ib.ErrRetryExhausted) {
			t.Fatalf("point %q failed with %v, want only IB points killed by retry exhaustion", f.Job, f.Err)
		}
	}
	for _, tb := range res.Tables {
		for _, row := range tb.Rows {
			for i, cell := range row[1:] {
				failed := cell == report.Failed
				if isIB := strings.HasPrefix(tb.Headers[i+1], "IB "); failed != isIB {
					t.Errorf("%s: row %v: column %q reads %q", tb.Title, row, tb.Headers[i+1], cell)
				}
			}
		}
	}
	notes := strings.Join(res.Notes, "\n")
	if strings.Contains(notes, "NaN") {
		t.Errorf("a note reads NaN:\n%s", notes)
	}
	for _, want := range []string{"IB 1PPN: trend fit failed", "IB 2PPN: trend fit failed", "vs IB failed", "Elan4 1PPN: x1."} {
		if !strings.Contains(notes, want) {
			t.Errorf("notes lack %q:\n%s", want, notes)
		}
	}
}

// TestTimeoutBoundsSimulationsOutsidePools: the timeout bounds the
// simulations of experiments that once ran them outside a pool, such as
// xrget. A quick xrget at 1 ns fails every simulation with an error
// wrapping sim.ErrCanceled and context.DeadlineExceeded, records each as a
// failed point, and renders every measured cell "failed".
func TestTimeoutBoundsSimulationsOutsidePools(t *testing.T) {
	e, err := Get("xrget")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(Options{Quick: true, Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 9 {
		t.Fatalf("%d failures, want all 9 simulations", len(res.Failures))
	}
	for _, f := range res.Failures {
		if !errors.Is(f.Err, sim.ErrCanceled) || !errors.Is(f.Err, context.DeadlineExceeded) {
			t.Errorf("point %q: error %v, want sim.ErrCanceled wrapping the deadline", f.Job, f.Err)
		}
	}
	for _, tb := range res.Tables {
		for _, row := range tb.Rows {
			for _, cell := range row[1:] {
				if cell != report.Failed {
					t.Errorf("%s: row %v has cell %q, want %q", tb.Title, row, cell, report.Failed)
				}
			}
		}
	}
}
