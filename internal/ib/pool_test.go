package ib

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/units"
)

// rdmaRun posts two rounds of four RDMA operations from node 0 (a write
// and a read to each of nodes 1 and 2), the second long after the first
// has completed, and records when each one's completion callback ran, in
// posting order. With then set it uses the continuation path, else the
// signal path with one OnFire callback per operation, and returns the
// signals it was handed.
func rdmaRun(t *testing.T, then bool) (*Network, []units.Time, []*sim.Signal, uint64) {
	t.Helper()
	eng := sim.NewEngine()
	net := NewNetwork(eng, testFabric(t, eng, 3), DefaultParams())
	var at []units.Time
	var sigs []*sim.Signal
	record := func() func() {
		i := len(at)
		at = append(at, -1)
		return func() { at[i] = eng.Now() }
	}
	eng.Spawn("poster", func(p *sim.Proc) {
		h := net.HCA(0)
		for round := 0; round < 2; round++ {
			for peer := 1; peer <= 2; peer++ {
				h.ConnectNoCost(peer)
				if then {
					h.RDMAWriteThen(p, peer, 8*units.KiB, nil, record())
					h.RDMAReadThen(p, peer, 8*units.KiB, nil, record())
					continue
				}
				w := h.RDMAWrite(p, peer, 8*units.KiB, nil)
				w.OnFire(record())
				r := h.RDMARead(p, peer, 8*units.KiB, nil)
				r.OnFire(record())
				sigs = append(sigs, w, r)
			}
			p.Sleep(units.Millisecond)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return net, at, sigs, eng.Events()
}

// TestThenPathMatchesSignalPath: the continuation path runs each
// completion at the time, and with the event count, of the signal path's
// single callback. Both paths recycle every operation, so the second
// round reuses the first round's; each signal fires at its operation's
// completion and keeps that time after its operation is reused, and no
// pooled operation holds a signal or a continuation. An rdmaOp stays
// within 80 bytes.
func TestThenPathMatchesSignalPath(t *testing.T) {
	if size := unsafe.Sizeof(rdmaOp{}); size > 80 {
		t.Fatalf("rdmaOp is %d bytes, want at most 80", size)
	}
	sigNet, sigAt, sigs, sigEvents := rdmaRun(t, false)
	thenNet, thenAt, _, thenEvents := rdmaRun(t, true)
	if len(thenAt) != 8 || len(sigAt) != 8 || len(sigs) != 8 {
		t.Fatalf("completions: %d with then, %d with signals (%d signals), want 8",
			len(thenAt), len(sigAt), len(sigs))
	}
	for i := range sigAt {
		if sigAt[i] != thenAt[i] {
			t.Errorf("completion %d at %v with then, %v with a signal", i, thenAt[i], sigAt[i])
		}
	}
	for i, s := range sigs {
		if !s.Fired() || s.FiredAt() != thenAt[i] {
			t.Errorf("signal %d fired %v at %v, want at %v", i, s.Fired(), s.FiredAt(), thenAt[i])
		}
	}
	if sigEvents != thenEvents {
		t.Errorf("%d events with then, %d with signals", thenEvents, sigEvents)
	}
	for _, c := range []struct {
		path string
		net  *Network
	}{{"signal", sigNet}, {"continuation", thenNet}} {
		h := c.net.HCA(0)
		if n := h.freeOps.Len(); n != 4 {
			t.Errorf("%s path left %d operations on the pool, want the first round's 4", c.path, n)
		}
		for op := h.freeOps.Get(); op != nil; op = h.freeOps.Get() {
			if op.done != nil || op.then != nil {
				t.Errorf("%s path pooled an operation holding a signal or a continuation", c.path)
			}
		}
	}
}

// TestReleasedOpMisuse: a released operation's continuation panics, and
// so does releasing it again; both name the type.
func TestReleasedOpMisuse(t *testing.T) {
	net, _, _, _ := rdmaRun(t, true)
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

// BenchmarkStreamingRDMAWrite is a window of nonblocking rendezvous
// payloads at the adapter's level: one process posts sixteen 64 KiB RDMA
// writes back to back on the continuation path, so they are in flight at
// once. Each op builds a fresh 2-node network, so B/op counts the
// operation, message and chunk states the stream needs.
func BenchmarkStreamingRDMAWrite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := NewNetwork(eng, testFabric(b, eng, 2), DefaultParams())
		eng.Spawn("poster", func(p *sim.Proc) {
			h := net.HCA(0)
			h.ConnectNoCost(1)
			for k := 0; k < 16; k++ {
				h.RDMAWriteThen(p, 1, 64*units.KiB, nil, nil)
			}
		})
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
