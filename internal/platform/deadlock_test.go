package platform

import (
	"errors"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestDeadlockReportText pins the full deadlock report of 2-rank jobs
// whose rank 0 posts a receive nobody matches. The report is assembled
// from the names of the signals the ranks block on (the transports'
// request names and each rank's "incoming" signal), so this catches any
// change to how those names are rendered.
func TestDeadlockReportText(t *testing.T) {
	// unmatched: rank 0 blocks in Recv on a message rank 1 never sends.
	unmatched := func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Recv(1, 1)
		}
	}
	// starved: rank 0 waits on its unmatched receive without making MPI
	// progress, so it never returns eager credits, and rank 1 stalls in
	// MVAPICH flow control waiting on its incoming signal.
	starved := func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Proc().Wait(r.Irecv(1, 1).Done())
			return
		}
		for i := 0; i < 64; i++ {
			r.Send(0, 0, 512)
		}
	}
	for _, tc := range []struct {
		name string
		net  Network
		app  func(*mpi.Rank)
		want string
	}{
		{"ib", InfiniBand4X, unmatched,
			"sim: deadlock at t=160ns: 1 blocked process(es): rank0 (waiting on any of ib recv 0<-1)"},
		{"elan", QuadricsElan4, unmatched,
			"sim: deadlock at t=310ns: 1 blocked process(es): rank0 (waiting on any of elan recv 0<-1)"},
		{"ib-credits", InfiniBand4X, starved,
			"sim: deadlock at t=64.24us: 2 blocked process(es): rank0 (waiting on signal ib recv 0<-1); " +
				"rank1 (waiting on signal rank1 incoming)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(Options{Network: tc.net, Ranks: 2, PPN: 1})
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.Run(tc.app)
			if !errors.Is(err, sim.ErrDeadlock) {
				t.Fatalf("err = %v, want a deadlock", err)
			}
			if got := err.Error(); got != tc.want {
				t.Fatalf("deadlock report:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}
