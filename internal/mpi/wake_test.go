package mpi_test

// Tests for the capture-then-wait protocol of a rank's incoming wake-up: a
// kick that lands while the rank is charged inside its progress engine is
// not lost, though the rank has already decided to wait.

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/units"
)

// TestCreditReturnDuringProgress: rank 0 first sends rank 1 24 channel-
// eager messages, which land unexpected while rank 1 computes. Rank 1 then
// sends rank 0 twice its eager credits, so it runs out and blocks in
// MVAPICH flow control, whose first Progress pass spends about 175 us
// draining those 24 messages. Rank 0's explicit credit returns land inside
// that pass. Rank 1 still proceeds, and every message arrives.
func TestCreditReturnDuringProgress(t *testing.T) {
	const pending, stalled = 24, 64
	m := build(t, platform.InfiniBand4X, 2, 1)
	received := [2]int{}
	_, err := m.Run(func(r *mpi.Rank) {
		if r.ID() == 0 {
			reqs := make([]*mpi.Request, pending)
			for i := range reqs {
				reqs[i] = r.Isend(1, 1, 8*units.KiB)
			}
			for i := 0; i < stalled; i++ {
				r.Recv(1, 0)
				received[0]++
			}
			r.Waitall(reqs...)
			return
		}
		r.Compute(100*units.Microsecond, 0)
		for i := 0; i < stalled; i++ {
			r.Send(0, 0, 512)
		}
		for i := 0; i < pending; i++ {
			r.Recv(0, 1)
			received[1]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if received != [2]int{stalled, pending} {
		t.Fatalf("received %v, want [%d %d]", received, stalled, pending)
	}
	if st := m.IB.RankStats(1); st.Unexpected != pending {
		t.Fatalf("rank 1 found %d messages unexpected, want %d", st.Unexpected, pending)
	}
}

// TestShmArrivalDuringNetworkProgress: rank 0 waits on a receive from its
// node-mate, rank 1, and its first progress pass drains 24 channel-eager
// messages from rank 2 on the other node, about 175 us of work. Rank 1's
// message lands on the shared-memory channel during that pass, after the
// channel was polled. Rank 0 must not park on that kick's behalf: nothing
// else will wake it, so a lost kick deadlocks the job.
func TestShmArrivalDuringNetworkProgress(t *testing.T) {
	const pending = 24
	m := build(t, platform.InfiniBand4X, 4, 2)
	_, err := m.Run(func(r *mpi.Rank) {
		switch r.ID() {
		case 0:
			r.Compute(200*units.Microsecond, 0)
			r.Recv(1, 0)
			for i := 0; i < pending; i++ {
				r.Recv(2, 1)
			}
		case 1:
			r.Compute(250*units.Microsecond, 0)
			r.Send(0, 0, 512)
		case 2:
			reqs := make([]*mpi.Request, pending)
			for i := range reqs {
				reqs[i] = r.Isend(0, 1, 8*units.KiB)
			}
			r.Waitall(reqs...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
