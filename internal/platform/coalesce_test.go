package platform

import (
	"testing"

	"repro/internal/apps/lammps"
	"repro/internal/mpi"
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
// simulated machines of the paper's experiments. An attached registry pins
// the fabric's coalescing off, so each run is made with coalescing on and
// off: the ping-pong sweep crosses the eager/rendezvous switch, the small
// LAMMPS runs at the fig. 2 scales put the IB doorbells on host buses that
// coalesced messages cover, and the b_eff-shaped ring exchange has every
// rank inject at once, so windows open and expand on disjoint paths.
func TestCoalescingExactMachine(t *testing.T) {
	ljs := func(r *mpi.Rank) { lammps.Run(r, lammps.LJS(2)) }
	type shape struct{ ranks, ppn int }
	for _, net := range Networks {
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
					requireUnperturbed(t, net, sh.ranks, sh.ppn, c.app)
				}
			})
		}
	}
}
