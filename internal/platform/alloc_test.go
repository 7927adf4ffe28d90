package platform

import (
	"runtime"
	"testing"

	"repro/internal/mpi"
)

// pingPongMallocs runs an eager 1 KiB ping-pong of iters round trips on a
// fresh 2-rank machine and reports the heap objects the run allocated.
func pingPongMallocs(t *testing.T, net Network, iters int) uint64 {
	t.Helper()
	m, err := New(Options{Network: net, Ranks: 2, PPN: 1})
	if err != nil {
		t.Fatal(err)
	}
	app := func(r *mpi.Rank) {
		for i := 0; i < iters; i++ {
			if r.ID() == 0 {
				r.Send(1, 0, 1024)
				r.Recv(1, 0)
			} else {
				r.Recv(0, 0)
				r.Send(0, 0, 1024)
			}
		}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if _, err := m.Run(app); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestEagerMessageAllocs pins the heap objects one eager message costs end
// to end (send and receive requests, wire envelope, NIC and fabric state,
// wake-ups) on each network. The difference between a 1,000- and a
// 3,000-iteration run cancels machine construction and warm-up, leaving
// the steady-state cost of 4,000 messages.
func TestEagerMessageAllocs(t *testing.T) {
	const maxPerMsg = 10
	for _, net := range Networks {
		t.Run(net.Short(), func(t *testing.T) {
			short := pingPongMallocs(t, net, 1000)
			long := pingPongMallocs(t, net, 3000)
			perMsg := float64(long-short) / 4000
			if perMsg > maxPerMsg {
				t.Fatalf("%.2f allocations per eager message, want at most %d", perMsg, maxPerMsg)
			}
			t.Logf("%.2f allocations per eager message", perMsg)
		})
	}
}
