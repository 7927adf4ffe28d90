package sim_test

// The event-key digest pins the kernel's dispatch order on the traffic
// that makes the paper's figures: a change to how processes switch or how
// host costs are charged must leave every event's (at, seq) key, and so
// every digest below, unchanged.

import (
	"fmt"
	"testing"

	"repro/internal/apps/lammps"
	"repro/internal/apps/sweep3d"
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

// TestEventKeyDigest runs quick Sweep3D, LAMMPS membrane at 2 PPN and
// b_eff on both networks and compares each run's event count and digest
// of dispatched event keys with the values recorded before the kernel
// dispatched on process stacks by direct handoff.
func TestEventKeyDigest(t *testing.T) {
	sweep := sweep3d.Default(24)
	sweep.Iterations = 1
	membrane := lammps.Membrane(6)
	membrane.ThermoEvery = 3
	type run struct {
		name       string
		ranks, ppn int
		app        func(*mpi.Rank)
	}
	runs := []run{
		{"sweep3d/r9", 9, 1, func(r *mpi.Rank) { sweep3d.Run(r, sweep) }},
		{"membrane/n4p2", 8, 2, func(r *mpi.Rank) { lammps.Run(r, membrane) }},
		{"sweep3d/r16", 16, 1, func(r *mpi.Rank) { sweep3d.Run(r, sweep) }},
		{"beff/ring/r8", 8, 1, beff(1, 2, 3, 4, 5, 6, 7, 0)},
		{"beff/perm/r8", 8, 1, beff(5, 0, 7, 1, 6, 2, 3, 4)},
	}
	want := map[string]string{
		"Elan4/sweep3d/r9":    "71809 events 953b7164fa3ba374",
		"Elan4/membrane/n4p2": "98630 events 0ffc5ec015637b20",
		"Elan4/sweep3d/r16":   "142119 events f8d9a3fca5e6f81b",
		"Elan4/beff/ring/r8":  "6840 events 013b98a877892dea",
		"Elan4/beff/perm/r8":  "6840 events 013b98a877892dea",
		"IB/sweep3d/r9":       "76517 events 52453b1fa2caaa36",
		"IB/membrane/n4p2":    "105301 events 416fbb4236448bb1",
		"IB/sweep3d/r16":      "154548 events b79d19301473d450",
		"IB/beff/ring/r8":     "7293 events 47d268a752af2fd0",
		"IB/beff/perm/r8":     "7293 events 0d088c197c577b00",
	}
	for _, net := range platform.Networks {
		for _, c := range runs {
			key := net.Short() + "/" + c.name
			t.Run(key, func(t *testing.T) {
				m, err := platform.New(platform.Options{Network: net, Ranks: c.ranks, PPN: c.ppn})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(c.app); err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("%d events %016x", m.Eng.Events(), sim.KeyDigest(m.Eng))
				if want[key] != got {
					t.Errorf("%s: got %s, want %s", key, got, want[key])
				}
			})
		}
	}
}
