package tports_test

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/mpi/tports"
	"repro/internal/platform"
	"repro/internal/units"
)

func build(t *testing.T, ranks, ppn int) *platform.Machine {
	t.Helper()
	m, err := platform.New(platform.Options{Network: platform.QuadricsElan4, Ranks: ranks, PPN: ppn})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIndependentProgressSenderComputing(t *testing.T) {
	// Mirror image of the mvib test: on Elan the rendezvous completes
	// while BOTH hosts compute, because the NICs run it.
	m := build(t, 2, 1)
	const compute = 50 * units.Millisecond
	var recvCompleted bool
	var recvDone units.Time
	_, err := m.Run(func(r *mpi.Rank) {
		if r.ID() == 0 {
			req := r.Isend(1, 0, 1*units.MiB)
			r.Compute(compute, 0)
			r.Wait(req)
		} else {
			req := r.Irecv(0, 0)
			r.Compute(compute, 0)
			// Read the completion before Wait releases the request.
			recvCompleted = req.Completed()
			recvDone = req.Done().FiredAt()
			r.Wait(req)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !recvCompleted {
		t.Fatal("rendezvous had not completed when the receiver's compute ended")
	}
	if units.Duration(recvDone) >= compute {
		t.Fatalf("rendezvous only completed at %v — the NIC should have finished it during compute", units.Duration(recvDone))
	}
}

func TestNICThreadUtilizationTracked(t *testing.T) {
	m := build(t, 2, 1)
	_, err := m.Run(func(r *mpi.Rank) {
		if r.ID() == 0 {
			for i := 0; i < 50; i++ {
				r.Send(1, 0, 1024)
			}
		} else {
			for i := 0; i < 50; i++ {
				r.Recv(0, 0)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	nic := m.Elan.Network().NIC(0)
	if nic.Sends != 50 {
		t.Fatalf("NIC sends = %d", nic.Sends)
	}
	if nic.Thread().Served() == 0 || nic.Thread().BusyTotal() <= 0 {
		t.Fatal("NIC thread did no accounted work")
	}
}

func TestMatchingQueuesLiveOnNIC(t *testing.T) {
	// Post many receives before any sends: the posted queue builds on the
	// receiving NIC, not the host.
	m := build(t, 2, 1)
	const n = 20
	_, err := m.Run(func(r *mpi.Rank) {
		if r.ID() == 1 {
			reqs := make([]*mpi.Request, n)
			for i := range reqs {
				reqs[i] = r.Irecv(0, i)
			}
			r.Waitall(reqs...)
		} else {
			r.Compute(time50(), 0)
			for i := 0; i < n; i++ {
				r.Send(1, i, 64)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	maxPosted, _ := m.Elan.Network().NIC(1).QueueStats()
	if maxPosted < n {
		t.Fatalf("NIC posted-queue peak = %d, want >= %d", maxPosted, n)
	}
}

func time50() units.Duration { return 50 * units.Microsecond }

func TestNoPerPeerState(t *testing.T) {
	// Connectionless: talking to 15 peers allocates no per-peer QP-like
	// state (there is nothing analogous to count — the assertion is that
	// the same NIC serves all peers uniformly and the first message to a
	// cold peer costs the same as to a warm one).
	m := build(t, 16, 1)
	costs := make([]units.Duration, 0, 2)
	_, err := m.Run(func(r *mpi.Rank) {
		if r.ID() == 0 {
			for _, peer := range []int{1, 15} {
				start := r.Now()
				r.Send(peer, 0, 1024)
				r.Recv(peer, 1)
				costs = append(costs, r.Now().Sub(start))
			}
		} else if r.ID() == 1 || r.ID() == 15 {
			r.Recv(0, 0)
			r.Send(0, 1, 1024)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Peer 15 sits on a different leaf only in larger networks; on one
	// chassis the round trips must match exactly.
	if costs[0] != costs[1] {
		t.Fatalf("cold vs warm peer cost differ: %v vs %v", costs[0], costs[1])
	}
}

// TestOpsRecycled: every op goes back to the transport's pool when its
// request completes, so twenty rounds of an eager and a rendezvous
// exchange leave no more ops on the pool than one round does. An op, the
// NIC's receive record included, stays within 96 bytes.
func TestOpsRecycled(t *testing.T) {
	if tports.OpSize > 96 {
		t.Fatalf("op is %d bytes, want at most 96", tports.OpSize)
	}
	pooled := func(rounds int) int {
		m := build(t, 2, 1)
		_, err := m.Run(func(r *mpi.Rank) {
			peer := 1 - r.ID()
			for i := 0; i < rounds; i++ {
				r.Waitall(r.Irecv(peer, 0), r.Irecv(peer, 1),
					r.Isend(peer, 0, 1*units.KiB), r.Isend(peer, 1, 64*units.KiB))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Elan.FreeOps()
	}
	one, many := pooled(1), pooled(20)
	if one == 0 || many != one {
		t.Fatalf("%d ops pooled after one round, %d after twenty; want the same, more than 0", one, many)
	}
}
