package ib

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// rdmaRun posts four RDMA operations from node 0 (a write and a read to
// each of nodes 1 and 2) and records when each one's completion callback
// ran. With then set it uses the continuation path, else the signal path
// with one OnFire callback per operation.
func rdmaRun(t *testing.T, then bool) (*Network, []units.Time, uint64) {
	t.Helper()
	eng := sim.NewEngine()
	net := NewNetwork(eng, testFabric(t, eng, 3), DefaultParams())
	var at []units.Time
	record := func() { at = append(at, eng.Now()) }
	eng.Spawn("poster", func(p *sim.Proc) {
		h := net.HCA(0)
		for peer := 1; peer <= 2; peer++ {
			h.ConnectNoCost(peer)
			if then {
				h.RDMAWriteThen(p, peer, 8*units.KiB, nil, record)
				h.RDMAReadThen(p, peer, 8*units.KiB, nil, record)
				continue
			}
			h.RDMAWrite(p, peer, 8*units.KiB, nil).OnFire(record)
			h.RDMARead(p, peer, 8*units.KiB, nil).OnFire(record)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return net, at, eng.Events()
}

// TestThenPathMatchesSignalPath: the continuation path runs each
// completion at the time, and with the event count, of the signal path's
// single callback; its operations go back to the pool (a later post may
// reuse one) and the signal path's never do.
func TestThenPathMatchesSignalPath(t *testing.T) {
	sigNet, sigAt, sigEvents := rdmaRun(t, false)
	thenNet, thenAt, thenEvents := rdmaRun(t, true)
	if len(thenAt) != 4 || len(sigAt) != 4 {
		t.Fatalf("completions: %d with then, %d with signals, want 4", len(thenAt), len(sigAt))
	}
	for i := range sigAt {
		if sigAt[i] != thenAt[i] {
			t.Errorf("completion %d at %v with then, %v with a signal", i, thenAt[i], sigAt[i])
		}
	}
	if sigEvents != thenEvents {
		t.Errorf("%d events with then, %d with signals", thenEvents, sigEvents)
	}
	if n := sigNet.HCA(0).freeOps.Len(); n != 0 {
		t.Errorf("signal path recycled %d operations, want 0", n)
	}
	if n := thenNet.HCA(0).freeOps.Len(); n == 0 {
		t.Error("continuation path recycled no operation")
	}
}

// TestReleasedOpMisuse: a released operation's continuation panics, and
// so does releasing it again; both name the type.
func TestReleasedOpMisuse(t *testing.T) {
	net, _, _ := rdmaRun(t, true)
	h := net.HCA(0)
	op := h.freeOps.Get()
	for _, c := range []struct {
		fn   func()
		want string
	}{
		{op.stepFn, "*ib.rdmaOp continuation ran after release"},
		{func() { h.freeOps.Put(op, &op.live) }, "*ib.rdmaOp released twice"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Errorf("panic %q, want %q", msg, c.want)
				}
			}()
			c.fn()
		}()
	}
}
