package mvib_test

import (
	"testing"

	"repro/internal/ib"
	"repro/internal/mpi"
	"repro/internal/mpi/mvib"
	"repro/internal/platform"
	"repro/internal/units"
)

func TestProtocolPathCounters(t *testing.T) {
	m, err := platform.New(platform.Options{Network: platform.InfiniBand4X, Ranks: 2, PPN: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 512)           // RDMA eager
			r.Send(1, 1, 4*units.KiB)   // channel eager
			r.Send(1, 2, 256*units.KiB) // rendezvous
		} else {
			r.Recv(0, 0)
			r.Recv(0, 1)
			r.Recv(0, 2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := m.IB.RankStats(0)
	if st.EagerSends != 2 {
		t.Errorf("eager sends = %d, want 2", st.EagerSends)
	}
	if st.RndvSends != 1 {
		t.Errorf("rendezvous sends = %d, want 1", st.RndvSends)
	}
}

func TestUnexpectedCounted(t *testing.T) {
	m, err := platform.New(platform.Options{Network: platform.InfiniBand4X, Ranks: 2, PPN: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 512)
			r.Send(1, 1, 512)
		} else {
			r.Compute(100*units.Microsecond, 0) // let them land unmatched
			r.Recv(0, 0)
			r.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := m.IB.RankStats(1); st.Unexpected != 2 {
		t.Errorf("unexpected = %d, want 2", st.Unexpected)
	}
}

// TestAttachCredits pins the initial eager credits at 4 nodes of 2
// ranks: none toward a rank on the same node, which the shared-memory
// channel serves, and a full slot ring toward every other rank.
func TestAttachCredits(t *testing.T) {
	m, err := platform.New(platform.Options{Network: platform.InfiniBand4X, Ranks: 8, PPN: 2})
	if err != nil {
		t.Fatal(err)
	}
	slots := m.IB.Params().EagerSlots
	for peer := 1; peer < 8; peer++ {
		want := slots
		if peer == 1 {
			want = 0
		}
		if got := m.IB.Credits(0, peer); got != want {
			t.Errorf("rank 0 holds %d credits toward rank %d, want %d", got, peer, want)
		}
	}
	if got := m.IB.Credits(7, 6); got != 0 {
		t.Errorf("rank 7 holds %d credits toward rank 6 on its node, want 0", got)
	}
}

func TestEagerMemoryGrowsWithJobSize(t *testing.T) {
	// The paper's Section 4.1 point: eager buffer space is linear in the
	// number of processes, which constrains the eager threshold.
	mem := func(ranks int) units.Bytes {
		m, err := platform.New(platform.Options{Network: platform.InfiniBand4X, Ranks: ranks, PPN: 1})
		if err != nil {
			t.Fatal(err)
		}
		return m.IB.EagerMemoryPerRank()
	}
	m4, m32 := mem(4), mem(32)
	t.Logf("eager memory per rank: 4 ranks %v, 32 ranks %v", m4, m32)
	if m32 <= m4*7 || m32 >= m4*11 {
		t.Fatalf("eager memory should grow ~linearly with peers: %v -> %v", m4, m32)
	}
}

func TestCreditStallWithoutReceiverProgress(t *testing.T) {
	// A sender bursting eager messages at a computing receiver must stall
	// once the slot ring is exhausted; credits only return when the
	// receiver enters MPI.
	m, err := platform.New(platform.Options{Network: platform.InfiniBand4X, Ranks: 2, PPN: 1})
	if err != nil {
		t.Fatal(err)
	}
	slots := m.IB.Params().EagerSlots
	const compute = 200 * units.Millisecond
	var burstEnd, blockedSendEnd units.Time
	_, err = m.Run(func(r *mpi.Rank) {
		if r.ID() == 0 {
			for i := 0; i < slots; i++ {
				r.Wait(r.Isend(1, 0, 256))
			}
			burstEnd = r.Now()
			r.Send(1, 0, 256) // ring full: must block until receiver wakes
			blockedSendEnd = r.Now()
		} else {
			r.Compute(compute, 0)
			for i := 0; i < slots+1; i++ {
				r.Recv(0, 0)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if units.Duration(burstEnd) > 50*units.Millisecond {
		t.Fatalf("initial burst should not block: took %v", units.Duration(burstEnd))
	}
	if units.Duration(blockedSendEnd) < compute {
		t.Fatalf("over-ring send completed at %v, before the receiver's compute ended (%v)",
			units.Duration(blockedSendEnd), compute)
	}
}

func TestRendezvousNeedsBothHostsProgress(t *testing.T) {
	// Sender posts Isend (rendezvous) then computes; receiver is in Recv
	// the whole time. The transfer cannot finish until the SENDER re-enters
	// MPI to process the CTS — the no-independent-progress property.
	m, err := platform.New(platform.Options{Network: platform.InfiniBand4X, Ranks: 2, PPN: 1})
	if err != nil {
		t.Fatal(err)
	}
	const compute = 50 * units.Millisecond
	var recvDone units.Time
	_, err = m.Run(func(r *mpi.Rank) {
		if r.ID() == 0 {
			req := r.Isend(1, 0, 1*units.MiB)
			r.Compute(compute, 0)
			r.Wait(req)
		} else {
			r.Recv(0, 0)
			recvDone = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if units.Duration(recvDone) < compute {
		t.Fatalf("rendezvous completed at %v while the sender was still computing (no independent progress expected)",
			units.Duration(recvDone))
	}
}

func TestQPConnectionsAllPairs(t *testing.T) {
	m, err := platform.New(platform.Options{Network: platform.InfiniBand4X, Ranks: 8, PPN: 2})
	if err != nil {
		t.Fatal(err)
	}
	nodes := 4
	for n := 0; n < nodes; n++ {
		hca := m.IB.Network().HCA(n)
		if hca.NumQPs() != nodes-1 {
			t.Fatalf("node %d has %d QPs, want %d", n, hca.NumQPs(), nodes-1)
		}
	}
}

func TestReadRendezvousIntegrityAndIndependence(t *testing.T) {
	m, err := platform.New(platform.Options{
		Network: platform.InfiniBand4X, Ranks: 2, PPN: 1,
		TuneIB: func(_ *ib.Params, tp *mvib.Params) { tp.ReadRendezvous = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	const compute = 50 * units.Millisecond
	var recvDone units.Time
	_, err = m.Run(func(r *mpi.Rank) {
		if r.ID() == 0 {
			req := r.IsendPayload(1, 0, 1*units.MiB, "pulled")
			r.Compute(compute, 0)
			r.Wait(req)
		} else {
			st := r.Recv(0, 0)
			recvDone = r.Now()
			if st.Payload != "pulled" || st.Size != 1*units.MiB {
				t.Errorf("status: %+v", st)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if units.Duration(recvDone) >= compute {
		t.Fatalf("RGET recv completed at %v — should not wait for the sender's compute (%v)",
			units.Duration(recvDone), compute)
	}
}

func TestReadRendezvousOrdering(t *testing.T) {
	m, err := platform.New(platform.Options{
		Network: platform.InfiniBand4X, Ranks: 2, PPN: 1,
		TuneIB: func(_ *ib.Params, tp *mvib.Params) { tp.ReadRendezvous = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	_, err = m.Run(func(r *mpi.Rank) {
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				size := units.Bytes(64)
				if i%2 == 0 {
					size = 128 * units.KiB // rendezvous
				}
				r.Wait(r.IsendPayload(1, 3, size, i))
			}
		} else {
			for i := 0; i < n; i++ {
				if st := r.Recv(0, 3); st.Payload != i {
					t.Errorf("out of order: got %v want %d", st.Payload, i)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
