package platform

import (
	"runtime"
	"testing"

	"repro/internal/mpi"
	"repro/internal/units"
)

// runMallocs runs body for iters iterations on every rank of a fresh
// machine with ppn ranks per node and reports the heap objects the run
// allocated.
func runMallocs(t *testing.T, net Network, ranks, ppn, iters int, body func(r *mpi.Rank)) int64 {
	t.Helper()
	m, err := New(Options{Network: net, Ranks: ranks, PPN: ppn})
	if err != nil {
		t.Fatal(err)
	}
	app := func(r *mpi.Rank) {
		for i := 0; i < iters; i++ {
			body(r)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if _, err := m.Run(app); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return int64(m1.Mallocs - m0.Mallocs)
}

// pinAllocs checks the steady-state heap objects one unit of work costs
// on each network, with ppn ranks per node: the difference between a 1,000- and a 3,000-iteration
// run, which cancels machine construction and warm-up, divided by the
// units the extra 2,000 iterations perform. A unit costs a whole number of
// objects, so anything over want by more than run-to-run noise is a new
// allocation on the path.
func pinAllocs(t *testing.T, ranks, ppn, unitsPerIter int, want map[string]float64, body func(r *mpi.Rank)) {
	for _, net := range Networks {
		t.Run(net.Short(), func(t *testing.T) {
			short := runMallocs(t, net, ranks, ppn, 1000, body)
			long := runMallocs(t, net, ranks, ppn, 3000, body)
			per := float64(long-short) / float64(2000*unitsPerIter)
			if max := want[net.Short()]; per > max+0.1 {
				t.Fatalf("%.2f allocations per unit, want at most %v", per, max)
			}
			t.Logf("%.2f allocations per unit", per)
		})
	}
}

// pingPong is one round trip of size bytes between ranks 0 and 1.
func pingPong(size units.Bytes) func(r *mpi.Rank) {
	return func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, size)
			r.Recv(1, 0)
		} else {
			r.Recv(0, 0)
			r.Send(0, 0, size)
		}
	}
}

// TestEagerMessageAllocs pins the heap objects one eager 1 KiB message
// costs end to end at 0 on both networks. Requests, wire envelopes, RDMA
// operations, Tports records and fabric state are all pooled, and IB's
// delivery kick fires the receiving rank's reusable incoming wake-up.
func TestEagerMessageAllocs(t *testing.T) {
	pinAllocs(t, 2, 1, 2, map[string]float64{"IB": 0, "Elan4": 0}, pingPong(units.KiB))
}

// TestRendezvousMessageAllocs pins a 64 KiB message, above both networks'
// eager thresholds, at 0 on both networks. On IB each of the RTS, the
// clear-to-send and the payload kicks the rank it lands on, and a kick
// allocates nothing.
func TestRendezvousMessageAllocs(t *testing.T) {
	pinAllocs(t, 2, 1, 2, map[string]float64{"IB": 0, "Elan4": 0}, pingPong(64*units.KiB))
}

// TestSendrecvBarrierAllocs pins b_eff's pattern on four ranks, a ring
// Sendrecv of 1 KiB then a Barrier, per rank per iteration, at 0 on both
// networks. On IB a rank receives three messages an iteration (the ring's
// and two barrier rounds'), each kicking it once, and returns credits to
// its ring predecessor in an explicit credit message every eight
// iterations; none of these kicks allocates.
func TestSendrecvBarrierAllocs(t *testing.T) {
	pinAllocs(t, 4, 1, 4, map[string]float64{"IB": 0, "Elan4": 0}, func(r *mpi.Rank) {
		n := r.Size()
		r.Sendrecv((r.ID()+1)%n, 0, units.KiB, (r.ID()+n-1)%n, 0)
		r.Barrier()
	})
}

// TestShmMessageAllocs pins one 1 KiB message between two ranks on the
// same node, which takes the shared-memory channel on either network, at
// 0: the channel's per-message state is pooled on the job and its
// delivery continuation is bound once.
func TestShmMessageAllocs(t *testing.T) {
	pinAllocs(t, 2, 2, 2, map[string]float64{"IB": 0, "Elan4": 0}, pingPong(units.KiB))
}

// ringExchange is one nonblocking exchange of 1 KiB around the ring: an
// Irecv from the predecessor and an Isend to the successor, then Waitall.
func ringExchange(r *mpi.Rank) {
	n := r.Size()
	r.Waitall(r.Irecv((r.ID()+n-1)%n, 0), r.Isend((r.ID()+1)%n, 0, units.KiB))
}

// TestNonblockingExchangeAllocs pins the halo pattern, an Irecv and an
// Isend per rank per iteration closed by Waitall, at 0 on both networks
// on four ranks at 1 PPN, and on the shared-memory channel on two ranks
// at 2 PPN. Waitall releases each request to its rank's pool, so the next
// Isend or Irecv reuses it.
func TestNonblockingExchangeAllocs(t *testing.T) {
	t.Run("1ppn", func(t *testing.T) {
		pinAllocs(t, 4, 1, 4, map[string]float64{"IB": 0, "Elan4": 0}, ringExchange)
	})
	t.Run("2ppn", func(t *testing.T) {
		pinAllocs(t, 2, 2, 2, map[string]float64{"IB": 0, "Elan4": 0}, ringExchange)
	})
}
