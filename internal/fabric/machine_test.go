package fabric_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/apps/lammps"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/units"
)

// pingpongSweep is the fig. 1 microbenchmark in small: ping-pongs at sizes
// on both sides of the eager/rendezvous switch.
func pingpongSweep(r *mpi.Rank) {
	sizes := []units.Bytes{0, 8, 128, 1 * units.KiB, 16 * units.KiB, 256 * units.KiB}
	for _, size := range sizes {
		for rep := 0; rep < 3; rep++ {
			if r.ID() == 0 {
				r.Send(1, 0, size)
				r.Recv(1, 1)
			} else {
				r.Recv(0, 0)
				r.Send(0, 1, size)
			}
		}
	}
}

// ringExchange is b_eff in small: every rank sends to its right-hand
// neighbour and receives from its left at once, at sizes on both sides of
// the eager/rendezvous switch, so all ranks inject together.
func ringExchange(r *mpi.Rank) {
	n := r.Size()
	right, left := (r.ID()+1)%n, (r.ID()+n-1)%n
	for _, size := range []units.Bytes{1 * units.KiB, 64 * units.KiB, 1 * units.MiB} {
		for rep := 0; rep < 2; rep++ {
			r.Sendrecv(right, 0, size, left, 0)
		}
	}
}

// TestCoalescingExactMachine checks coalescing through the complete
// simulated machines of the paper's experiments: each run is made with
// coalescing on and off, and both must time every rank alike and record
// the same metrics. The ping-pong sweep crosses the eager/rendezvous
// switch, the small LAMMPS runs at the fig. 2 scales put the IB doorbells
// on host buses that coalesced messages cover, and the b_eff-shaped ring
// exchange has every rank inject at once, so windows open and expand on
// disjoint paths.
func TestCoalescingExactMachine(t *testing.T) {
	ljs := func(r *mpi.Rank) { lammps.Run(r, lammps.LJS(2)) }
	type shape struct{ ranks, ppn int }
	for _, net := range platform.Networks {
		for _, c := range []struct {
			name   string
			app    func(*mpi.Rank)
			shapes []shape
		}{
			{"pingpong", pingpongSweep, []shape{{2, 1}}},
			{"lammps", ljs, []shape{{2, 1}, {4, 2}, {8, 2}}},
			{"beff", ringExchange, []shape{{8, 1}}},
		} {
			t.Run(net.Short()+"/"+c.name, func(t *testing.T) {
				for _, sh := range c.shapes {
					on, onSnap := runMachine(t, net, sh.ranks, sh.ppn, true, c.app)
					off, offSnap := runMachine(t, net, sh.ranks, sh.ppn, false, c.app)
					if on.Elapsed != off.Elapsed || !slices.Equal(on.RankElapsed, off.RankElapsed) {
						t.Errorf("%d/%d: elapsed %v %v coalesced, %v %v chunked", sh.ranks, sh.ppn,
							on.Elapsed, on.RankElapsed, off.Elapsed, off.RankElapsed)
					}
					if !reflect.DeepEqual(onSnap, offSnap) {
						t.Errorf("%d/%d: metrics differ:\n%+v coalesced\n%+v chunked", sh.ranks, sh.ppn, onSnap, offSnap)
					}
				}
			})
		}
	}
}

// runMachine runs app on a machine with a registry attached and coalescing
// on or off, and returns the result and the registry's snapshot without
// sim.events_dispatched, the one count that depends on coalescing.
func runMachine(t *testing.T, net platform.Network, ranks, ppn int, coalesce bool, app func(*mpi.Rank)) (*mpi.Result, metrics.Snapshot) {
	t.Helper()
	reg := metrics.New()
	m, err := platform.New(platform.Options{Network: net, Ranks: ranks, PPN: ppn, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	m.Fab.SetCoalescing(coalesce)
	res, err := m.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	snap.Counters = slices.DeleteFunc(snap.Counters, func(c metrics.CounterPoint) bool {
		return c.Name == "sim.events_dispatched"
	})
	return res, snap
}
