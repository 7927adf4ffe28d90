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
