package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/runner"
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

// TestSweepErrorDeterminism: when every point of a sweep fails, the
// failures are listed in submission order, with the same causes, whether
// the sweep runs on one worker or eight.
func TestSweepErrorDeterminism(t *testing.T) {
	// Ranks=0 is invalid: every point fails to build its machine.
	nets, nodes, ppns := platform.Networks, []int{0}, []int{1, 2}
	var want []string
	for _, net := range nets {
		for _, ppn := range ppns {
			want = append(want, fmt.Sprintf("%s ppn=%d nodes=0", net.Short(), ppn))
		}
	}
	var lists [][]runner.Failure
	for _, jobs := range []int{1, 8} {
		res := &Result{ID: "sweep"}
		runSeries(Options{Jobs: jobs}, res, "", nets, nodes, ppns, nil)
		if len(res.Failures) != len(want) {
			t.Fatalf("jobs=%d: %d failures, want every one of %d points", jobs, len(res.Failures), len(want))
		}
		for i, f := range res.Failures {
			if f.Job != want[i] {
				t.Errorf("jobs=%d: failure %d is %q, want %q (submission order)", jobs, i, f.Job, want[i])
			}
		}
		for i := range res.Failures {
			res.Failures[i].Err = nil // compare the rendered causes
		}
		lists = append(lists, res.Failures)
	}
	if !reflect.DeepEqual(lists[0], lists[1]) {
		t.Fatalf("failures differ between jobs=1 and jobs=8:\n%v\n%v", lists[0], lists[1])
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

// TestXLogGPIsObserved: xloggp attaches the experiment's registry to every
// machine it builds, as every other experiment does.
func TestXLogGPIsObserved(t *testing.T) {
	e, err := Get("xloggp")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	if _, err := e.Run(Options{Quick: true, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("sim.events_dispatched").Value(); n == 0 {
		t.Fatal("sim.events_dispatched = 0 with a registry attached")
	}
}

// TestTimelineLabelsAreUnique: every machine an experiment builds has its
// own timeline label, so a reader can tell its track from the others,
// including where a point builds several machines (xfault, xloggp). fig5
// runs under a 1 ns timeout: each of its machines is still built, and so
// labelled, but records no events (its full quick trace is ~190 MB).
func TestTimelineLabelsAreUnique(t *testing.T) {
	cases := []struct {
		id      string
		timeout time.Duration
	}{{"fig5", time.Nanosecond}, {"xfault", 0}, {"xloggp", 0}, {"xrget", 0}}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			e, err := Get(c.id)
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.New()
			reg.EnableTracing()
			if _, err := e.Run(Options{Quick: true, Timeout: c.timeout, Metrics: reg}); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := metrics.WriteChromeTrace(&buf, metrics.TraceSource{Reg: reg}); err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Name string            `json:"name"`
					Args map[string]string `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
				t.Fatal(err)
			}
			tracks := map[string]int{}
			for _, ev := range trace.TraceEvents {
				if ev.Name == "process_name" {
					tracks[ev.Args["name"]]++
				}
			}
			for label, n := range tracks {
				if n > 1 {
					t.Errorf("label %q names %d tracks", label, n)
				}
			}
			if len(tracks) < 2 {
				t.Fatalf("%d tracks, want one per machine", len(tracks))
			}
		})
	}
}
