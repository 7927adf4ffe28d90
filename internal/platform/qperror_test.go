package platform

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ib"
	"repro/internal/mpi"
	"repro/internal/runner"
)

// TestRetryExhaustionWrapsSentinel: a link that never comes back exhausts
// the IB retry budget, and the error Machine.Run returns wraps
// ib.ErrRetryExhausted, also after the runner records it as a failed job.
// The text is the QP error's own, so digests of it do not move.
func TestRetryExhaustionWrapsSentinel(t *testing.T) {
	run := func(ctx context.Context) (interface{}, error) {
		m, err := New(Options{Network: InfiniBand4X, Ranks: 2, PPN: 1, FaultSpec: "down:inj(1)", Ctx: ctx})
		if err != nil {
			return nil, err
		}
		return m.Run(pingpong)
	}
	_, err := run(context.Background())
	if !errors.Is(err, ib.ErrRetryExhausted) {
		t.Fatalf("Machine.Run: err = %v, want one wrapping ib.ErrRetryExhausted", err)
	}
	const want = "ib: QP error on node 1 (rdma-write to peer 0): retry budget exhausted after 7 retransmissions"
	if err.Error() != want {
		t.Fatalf("error text %q, want %q", err, want)
	}

	results := (&runner.Pool{Workers: 1}).Run(context.Background(), []runner.Job{{ID: "qp-error", Run: run}})
	fails := runner.Failures(results)
	if len(fails) != 1 || !errors.Is(fails[0].Err, ib.ErrRetryExhausted) {
		t.Fatalf("runner failures %+v, want one wrapping ib.ErrRetryExhausted", fails)
	}

	// A run that fails otherwise does not read as a fault-plan kill.
	m, err := New(Options{Network: InfiniBand4X, Ranks: 2, PPN: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(func(r *mpi.Rank) { r.Recv(1-r.ID(), 0) }); err == nil || errors.Is(err, ib.ErrRetryExhausted) {
		t.Fatalf("deadlocked run: err = %v, want an error not wrapping ib.ErrRetryExhausted", err)
	}
}
