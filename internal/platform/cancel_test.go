package platform

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestRunStopsOnContext: a machine whose Options.Ctx times out stops an
// endless job with an error matching sim.ErrCanceled and
// context.DeadlineExceeded, and unwinds every rank's process.
func TestRunStopsOnContext(t *testing.T) {
	for _, net := range Networks {
		t.Run(net.Short(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			m, err := New(Options{Network: net, Ranks: 4, PPN: 1, Ctx: ctx})
			if err != nil {
				t.Fatal(err)
			}
			// A backstop, so a run that misses its context fails instead
			// of hanging: far more events than 10ms of host time runs.
			m.Eng.SetEventLimit(5_000_000)
			_, err = m.Run(func(r *mpi.Rank) {
				peer := r.ID() ^ 1
				for i := 0; ; i++ {
					r.Sendrecv(peer, i, 1024, peer, i)
				}
			})
			if !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want sim.ErrCanceled wrapping context.DeadlineExceeded", err)
			}
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines a second after the canceled run, baseline %d", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
