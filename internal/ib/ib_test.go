package ib

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/units"
)

func testFabric(t testing.TB, eng *sim.Engine, nodes int) *fabric.Fabric {
	t.Helper()
	f, err := fabric.New(eng, nodes, 96, fabric.Params{
		LinkBandwidth:  1 * units.GBps,
		WireLatency:    50 * units.Nanosecond,
		ChassisLatency: 150 * units.Nanosecond,
		MTU:            2 * units.KiB,
		HostBandwidth:  900 * units.MBps,
		HostLatency:    150 * units.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRDMAWriteDelivers(t *testing.T) {
	eng := sim.NewEngine()
	fab := testFabric(t, eng, 4)
	net := NewNetwork(eng, fab, DefaultParams())

	var got Delivery
	var deliveredAt units.Time
	net.HCA(1).SetHandler(func(d Delivery) {
		got = d
		deliveredAt = eng.Now()
	})
	var localAt units.Time
	eng.Spawn("sender", func(p *sim.Proc) {
		h := net.HCA(0)
		h.ConnectNoCost(1)
		done := h.RDMAWrite(p, 1, 8*units.KiB, "env")
		p.Wait(done)
		localAt = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got.SrcNode != 0 || got.Imm != "env" || got.Size != 8*units.KiB {
		t.Fatalf("delivery = %+v", got)
	}
	if deliveredAt == 0 || localAt < deliveredAt {
		t.Fatalf("delivered %v, local completion %v", deliveredAt, localAt)
	}
}

func TestRDMAWithoutConnectionPanics(t *testing.T) {
	eng := sim.NewEngine()
	fab := testFabric(t, eng, 2)
	net := NewNetwork(eng, fab, DefaultParams())
	eng.Spawn("sender", func(p *sim.Proc) {
		net.HCA(0).RDMAWrite(p, 1, 100, nil)
	})
	if err := eng.Run(); err == nil {
		t.Fatal("expected panic error for unconnected RDMA")
	}
}

// TestConnectIdempotentAndCosted: a QP costs its context memory once per
// peer; connecting to the same peer again adds nothing.
func TestConnectIdempotentAndCosted(t *testing.T) {
	eng := sim.NewEngine()
	fab := testFabric(t, eng, 3)
	net := NewNetwork(eng, fab, DefaultParams())
	h := net.HCA(0)
	h.ConnectNoCost(1)
	h.ConnectNoCost(1) // no-op
	h.ConnectNoCost(2)
	if h.NumQPs() != 2 || h.QPMemory != 2*DefaultParams().QPContextBytes {
		t.Fatalf("qps=%d mem=%v", h.NumQPs(), h.QPMemory)
	}
	if !h.Connected(1) || !h.Connected(2) || h.Connected(0) {
		t.Fatal("Connected disagrees with the QPs made")
	}
}

func TestHCAEngineSerializesSmallMessages(t *testing.T) {
	eng := sim.NewEngine()
	fab := testFabric(t, eng, 2)
	net := NewNetwork(eng, fab, DefaultParams())
	const n = 10
	count := 0
	var last units.Time
	net.HCA(1).SetHandler(func(d Delivery) {
		count++
		last = eng.Now()
	})
	eng.Spawn("sender", func(p *sim.Proc) {
		h := net.HCA(0)
		h.ConnectNoCost(1)
		for i := 0; i < n; i++ {
			h.RDMAWrite(p, 1, 8, i)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("delivered %d/%d", count, n)
	}
	// Message rate is bounded by per-WQE processing at minimum.
	if minSpan := units.Duration(n) * DefaultParams().ProcPerWQE; units.Duration(last) < minSpan {
		t.Fatalf("last delivery %v faster than HCA engine allows (%v)", last, minSpan)
	}
}

func TestRegistrationCachedSecondAccessCheap(t *testing.T) {
	eng := sim.NewEngine()
	fab := testFabric(t, eng, 2)
	net := NewNetwork(eng, fab, DefaultParams())
	var missCost, hitCost units.Duration
	eng.Spawn("reg", func(p *sim.Proc) {
		h := net.HCA(0)
		t0 := p.Now()
		h.Register(p, 1, 64*units.KiB)
		missCost = p.Now().Sub(t0)
		t0 = p.Now()
		h.Register(p, 1, 64*units.KiB)
		hitCost = p.Now().Sub(t0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if hitCost >= missCost/10 {
		t.Fatalf("hit %v not much cheaper than miss %v", hitCost, missCost)
	}
	rc := net.HCA(0).RegCache()
	if rc.Hits != 1 || rc.Misses != 1 {
		t.Fatalf("cache stats %d/%d", rc.Hits, rc.Misses)
	}
}

func TestRDMAReadPullsData(t *testing.T) {
	eng := sim.NewEngine()
	fab := testFabric(t, eng, 2)
	net := NewNetwork(eng, fab, DefaultParams())
	var got Delivery
	net.HCA(0).SetHandler(func(d Delivery) { got = d })
	var doneAt units.Time
	eng.Spawn("reader", func(p *sim.Proc) {
		h := net.HCA(0)
		h.ConnectNoCost(1)
		done := h.RDMARead(p, 1, 64*units.KiB, "pulled")
		p.Wait(done)
		doneAt = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got.SrcNode != 1 || got.Imm != "pulled" || got.Size != 64*units.KiB {
		t.Fatalf("delivery = %+v", got)
	}
	// A read is a round trip plus the payload: strictly more than the
	// payload serialization alone.
	floor := (900 * units.MBps).TimeFor(64 * units.KiB)
	if units.Duration(doneAt) <= floor {
		t.Fatalf("read completed at %v, faster than payload serialization %v", doneAt, floor)
	}
}

func TestRDMAReadWithoutConnectionPanics(t *testing.T) {
	eng := sim.NewEngine()
	fab := testFabric(t, eng, 2)
	net := NewNetwork(eng, fab, DefaultParams())
	eng.Spawn("reader", func(p *sim.Proc) {
		net.HCA(0).RDMARead(p, 1, 100, nil)
	})
	if err := eng.Run(); err == nil {
		t.Fatal("expected panic error for unconnected RDMA read")
	}
}

func TestRDMAReadRemoteHostUninvolved(t *testing.T) {
	// The remote side never runs a process; if the read still completes,
	// the remote host was not needed (one-sided semantics).
	eng := sim.NewEngine()
	fab := testFabric(t, eng, 2)
	net := NewNetwork(eng, fab, DefaultParams())
	completed := false
	eng.Spawn("reader", func(p *sim.Proc) {
		h := net.HCA(0)
		h.ConnectNoCost(1)
		p.Wait(h.RDMARead(p, 1, 4*units.KiB, nil))
		completed = true
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatal("read did not complete")
	}
	if net.HCA(1).SendCount != 0 {
		t.Fatal("remote posted work — reads must be one-sided")
	}
}
