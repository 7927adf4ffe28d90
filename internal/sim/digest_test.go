package sim_test

// The event-key digest pins the kernel's dispatch order on the traffic
// that makes the paper's figures: a change to how processes switch or how
// host costs are charged must leave every event's (at, seq) key, and so
// every digest below, unchanged.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps/lammps"
	"repro/internal/apps/sweep3d"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
)

// beff is a small b_eff over the pattern pat (rank i sends to pat[i]):
// one Sendrecv per size across the eager/rendezvous threshold, between
// barriers.
func beff(pat ...int) func(*mpi.Rank) {
	inv := make([]int, len(pat))
	for i, v := range pat {
		inv[v] = i
	}
	return func(r *mpi.Rank) {
		to, from := pat[r.ID()], inv[r.ID()]
		for i, size := range []units.Bytes{1, 256, 4 * units.KiB, 16 * units.KiB, 256 * units.KiB} {
			r.Barrier()
			r.Sendrecv(to, i, size, from, i)
		}
		r.Barrier()
	}
}

// digestRun is one of the simulations the digests pin.
type digestRun struct {
	name       string
	ranks, ppn int
	app        func(*mpi.Rank)
}

// digestRuns are quick Sweep3D, LAMMPS membrane at 2 PPN and b_eff.
func digestRuns() []digestRun {
	sweep := sweep3d.Default(24)
	sweep.Iterations = 1
	membrane := lammps.Membrane(6)
	membrane.ThermoEvery = 3
	return []digestRun{
		{"sweep3d/r9", 9, 1, func(r *mpi.Rank) { sweep3d.Run(r, sweep) }},
		{"membrane/n4p2", 8, 2, func(r *mpi.Rank) { lammps.Run(r, membrane) }},
		{"sweep3d/r16", 16, 1, func(r *mpi.Rank) { sweep3d.Run(r, sweep) }},
		{"beff/ring/r8", 8, 1, beff(1, 2, 3, 4, 5, 6, 7, 0)},
		{"beff/perm/r8", 8, 1, beff(5, 0, 7, 1, 6, 2, 3, 4)},
	}
}

// run runs c on net with the given registry (nil for none) attached and,
// if ring is set, the MPI trace ring (World.EnableTrace) recording.
func (c digestRun) run(t *testing.T, net platform.Network, reg *metrics.Registry, ring bool) *platform.Machine {
	t.Helper()
	m, err := platform.New(platform.Options{Network: net, Ranks: c.ranks, PPN: c.ppn, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if ring {
		m.World.EnableTrace(256)
	}
	if _, err := m.Run(c.app); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEventKeyDigest runs each of digestRuns on both networks and compares
// each run's event count and digest of dispatched event keys with the
// values recorded before the kernel dispatched on process stacks by direct
// handoff.
func TestEventKeyDigest(t *testing.T) {
	want := map[string]string{
		"Elan4/sweep3d/r9":    "71809 events 953b7164fa3ba374",
		"Elan4/membrane/n4p2": "97874 events 0b73f0c52fb7d456",
		"Elan4/sweep3d/r16":   "142119 events f8d9a3fca5e6f81b",
		"Elan4/beff/ring/r8":  "6705 events c89c8879642e24a7",
		"Elan4/beff/perm/r8":  "6705 events c89c8879642e24a7",
		"IB/sweep3d/r9":       "76517 events 52453b1fa2caaa36",
		"IB/membrane/n4p2":    "103365 events 9609ba82b020fa09",
		"IB/sweep3d/r16":      "154548 events b79d19301473d450",
		"IB/beff/ring/r8":     "7155 events 174794cf773f74e3",
		"IB/beff/perm/r8":     "7155 events de0798f967f6117f",
	}
	for _, net := range platform.Networks {
		for _, c := range digestRuns() {
			key := net.Short() + "/" + c.name
			t.Run(key, func(t *testing.T) {
				m := c.run(t, net, nil, false)
				got := fmt.Sprintf("%d events %016x", m.Eng.Events(), sim.KeyDigest(m.Eng))
				if want[key] != got {
					t.Errorf("%s: got %s, want %s", key, got, want[key])
				}
			})
		}
	}
}

// TestTracingChangesNoEvent: observing a run schedules nothing. On each of
// digestRuns a plain registry, a tracing registry and the MPI trace ring
// dispatch exactly the events, key for key, that an unobserved run does.
func TestTracingChangesNoEvent(t *testing.T) {
	for _, net := range platform.Networks {
		for _, c := range digestRuns() {
			t.Run(net.Short()+"/"+c.name, func(t *testing.T) {
				bare := c.run(t, net, nil, false)
				traced := metrics.New()
				traced.EnableTracing()
				for _, obs := range []struct {
					name string
					reg  *metrics.Registry
					ring bool
				}{{"plain", metrics.New(), false}, {"traced", traced, false}, {"trace ring", nil, true}} {
					m := c.run(t, net, obs.reg, obs.ring)
					if _, n := m.World.Trace(); obs.ring && n == 0 {
						t.Errorf("%s recorded no event", obs.name)
					}
					if b, o := bare.Eng.Events(), m.Eng.Events(); b != o {
						t.Errorf("events: no registry %d, %s %d", b, obs.name, o)
					}
					if b, o := sim.KeyDigest(bare.Eng), sim.KeyDigest(m.Eng); b != o {
						t.Errorf("key digest: no registry %016x, %s %016x", b, obs.name, o)
					}
				}
			})
		}
	}
}

// TestTracedTimelineDigest pins the timelines of traced Sweep3D and
// membrane runs by their sorted trace digest.
func TestTracedTimelineDigest(t *testing.T) {
	want := map[string]string{
		"Elan4/sweep3d/r9":    "43412 events bb6f7a0653fda15d",
		"Elan4/membrane/n4p2": "6949 events 53ded11d0a7e572c",
		"IB/sweep3d/r9":       "51895 events 9fb799512e2e4460",
		"IB/membrane/n4p2":    "10429 events 7632528cee9fbecf",
	}
	for _, net := range platform.Networks {
		for _, c := range digestRuns()[:2] {
			key := net.Short() + "/" + c.name
			t.Run(key, func(t *testing.T) {
				reg := metrics.New()
				reg.EnableTracing()
				c.run(t, net, reg, false)
				if got := traceDigest(t, reg); want[key] != got {
					t.Errorf("%s: got %s, want %s", key, got, want[key])
				}
			})
		}
	}
}

// traceDigest hashes the registry's Chrome trace events in sorted order,
// so it pins what the timeline holds and not the order it was recorded in.
func traceDigest(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := metrics.WriteChromeTrace(&buf, metrics.TraceSource{Reg: reg}); err != nil {
		t.Fatal(err)
	}
	var trace struct{ TraceEvents []json.RawMessage }
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	evs := make([]string, len(trace.TraceEvents))
	for i, ev := range trace.TraceEvents {
		evs[i] = string(ev)
	}
	sort.Strings(evs)
	sum := sha256.Sum256([]byte(strings.Join(evs, "\n")))
	return fmt.Sprintf("%d events %x", len(evs), sum[:8])
}
