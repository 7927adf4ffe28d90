package experiments

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// TestParallelDeterminism is the regression guard for the runner rewiring:
// the rendered tables of a representative sweep experiment must be
// byte-identical whether the sweep runs on one worker or eight. This holds
// because every simulation owns a private event engine and RNG stream and
// the runner assembles results in submission order.
//
// Shared-state audit (done while writing this test): the only package-level
// variables reachable from a simulation are immutable — platform.Networks,
// cost.CurveLabels, mpi's sizeClassBounds, and the sim error sentinels.
// The experiments registry is mutated in init() only, before any sweep.
func TestParallelDeterminism(t *testing.T) {
	// fig2 exercises runSeries (the triple-nested sweep); fig1b the
	// hand-built micro-benchmark batch; xreg the per-column grid with
	// machine reuse inside a job; xoverlap the flat (size, net) grid.
	for _, id := range []string{"fig2", "fig1b", "xreg", "xoverlap"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := e.Run(Options{Quick: true, Jobs: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := e.Run(Options{Quick: true, Jobs: 8})
			if err != nil {
				t.Fatal(err)
			}
			if s, p := serial.String(), parallel.String(); s != p {
				t.Fatalf("jobs=1 and jobs=8 disagree:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", s, p)
			}
		})
	}
}

// TestFaultDeterminism extends the parallel-determinism guard to faulty
// runs: with a fault plan installed (the xfault experiment builds its own
// specs; fig1b runs under an explicit loss plan), rendered tables must
// still be byte-identical across worker counts — fault windows are sim
// events and loss draws come from per-link streams, so nothing depends on
// host scheduling.
func TestFaultDeterminism(t *testing.T) {
	cases := []struct {
		id     string
		faults string
	}{
		{"xfault", ""},
		// Loss kept low: fig1b's MiB-scale messages draw per chunk per
		// link, and a plan that routinely kills every attempt would
		// deterministically exhaust IB's retry budget instead.
		{"fig1b", "loss:all:p=0.00001;degrade:inj(0):bw=0.7:lat=500ns"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			t.Parallel()
			e, err := Get(c.id)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := e.Run(Options{Quick: true, Jobs: 1, Faults: c.faults})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := e.Run(Options{Quick: true, Jobs: 8, Faults: c.faults})
			if err != nil {
				t.Fatal(err)
			}
			if s, p := serial.String(), parallel.String(); s != p {
				t.Fatalf("jobs=1 and jobs=8 disagree under faults:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", s, p)
			}
		})
	}
}

// TestSweepErrorDeterminism: when a sweep point fails, the error that
// surfaces is the first one in submission order, independent of worker
// count and completion order.
func TestSweepErrorDeterminism(t *testing.T) {
	// Ranks=0 is invalid for every point: all jobs fail, and the reported
	// error must be the first submitted point (Elan-4, first ppn/nodes).
	for _, jobs := range []int{1, 8} {
		_, fails, err := runSeries(Options{Jobs: jobs}, nil, nil, nil, nil)
		if err != nil {
			t.Fatalf("empty sweep must not fail, got %v", err)
		}
		if len(fails) != 0 {
			t.Fatalf("empty sweep reported failures: %v", fails)
		}
	}
}

// TestTracingLeavesMetricsUnchanged: asking for a timeline changes no
// count. fig1b's snapshot is the same with a plain registry and with a
// tracing one.
func TestTracingLeavesMetricsUnchanged(t *testing.T) {
	e, err := Get("fig1b")
	if err != nil {
		t.Fatal(err)
	}
	snap := func(reg *metrics.Registry) metrics.Snapshot {
		if _, err := e.Run(Options{Quick: true, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot()
	}
	traced := metrics.New()
	traced.EnableTracing()
	p, tr := snap(metrics.New()), snap(traced)
	if reflect.DeepEqual(p, tr) {
		return
	}
	for i := range p.Counters {
		if i < len(tr.Counters) && p.Counters[i] != tr.Counters[i] {
			t.Errorf("plain %v, traced %v", p.Counters[i], tr.Counters[i])
		}
	}
	t.Fatal("snapshots differ")
}
