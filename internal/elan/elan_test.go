package elan

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/match"
	"repro/internal/sim"
	"repro/internal/units"
)

// testNet builds a 1-rank-per-node Elan network over `nodes` nodes on one
// radix-64 switch.
func testNet(t testing.TB, eng *sim.Engine, nodes int) *Network {
	t.Helper()
	return testClos(t, eng, nodes, 64)
}

// testClos builds a 1-rank-per-node Elan network over `nodes` nodes on an
// adaptive Clos of the given radix.
func testClos(t testing.TB, eng *sim.Engine, nodes, radix int) *Network {
	t.Helper()
	f, err := fabric.New(eng, nodes, radix, fabric.Params{
		LinkBandwidth:  1300 * units.MBps,
		WireLatency:    30 * units.Nanosecond,
		ChassisLatency: 120 * units.Nanosecond,
		MTU:            2 * units.KiB,
		HostBandwidth:  950 * units.MBps,
		HostLatency:    100 * units.Nanosecond,
		Adaptive:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(eng, f, DefaultParams(), func(rank int) int { return rank })
	for i := 0; i < nodes; i++ {
		net.NIC(i).AttachRank(i)
	}
	return net
}

func env(src, tag int) match.Envelope { return match.Envelope{Src: src, Tag: tag, Ctx: 0} }

func TestEagerSendRecv(t *testing.T) {
	eng := sim.NewEngine()
	net := testNet(t, eng, 2)
	var recv *Recv
	eng.Spawn("recv", func(p *sim.Proc) {
		recv = net.NIC(1).RxPost(p, 1, env(0, 42))
		p.Wait(recv.Done)
	})
	eng.Spawn("send", func(p *sim.Proc) {
		tx := net.NIC(0).TxPost(p, 0, 1, env(0, 42), 1024, "hello")
		p.Wait(tx)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if recv.Src != 0 || recv.Tag != 42 || recv.Size != 1024 || recv.Payload != "hello" {
		t.Fatalf("recv = %+v", recv)
	}
}

func TestRendezvousSendRecv(t *testing.T) {
	eng := sim.NewEngine()
	net := testNet(t, eng, 2)
	size := units.Bytes(256 * units.KiB) // above eager threshold
	var recvAt, txAt units.Time
	var recv *Recv
	eng.Spawn("recv", func(p *sim.Proc) {
		recv = net.NIC(1).RxPost(p, 1, env(0, 7))
		p.Wait(recv.Done)
		recvAt = p.Now()
	})
	eng.Spawn("send", func(p *sim.Proc) {
		tx := net.NIC(0).TxPost(p, 0, 1, env(0, 7), size, nil)
		p.Wait(tx)
		txAt = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if recv.Size != size {
		t.Fatalf("recv size %v", recv.Size)
	}
	// Rendezvous tx completes when the payload was pulled — after at least
	// one round trip plus the payload transfer.
	minData := units.Duration(float64(size) / float64(950*units.MBps) * 1e12)
	if units.Duration(txAt) < minData {
		t.Fatalf("tx done at %v, faster than payload transfer %v", txAt, minData)
	}
	if recvAt < txAt {
		t.Fatalf("recv (%v) completed before tx (%v)", recvAt, txAt)
	}
}

func TestUnexpectedEagerPaysCopy(t *testing.T) {
	// Receive posted late: message buffers, then pays a drain copy.
	late := func(sleep units.Duration) units.Time {
		eng := sim.NewEngine()
		net := testNet(t, eng, 2)
		size := units.Bytes(16 * units.KiB)
		var recvAt units.Time
		eng.Spawn("recv", func(p *sim.Proc) {
			p.Sleep(sleep)
			r := net.NIC(1).RxPost(p, 1, env(0, 1))
			p.Wait(r.Done)
			recvAt = p.Now()
		})
		eng.Spawn("send", func(p *sim.Proc) {
			net.NIC(0).TxPost(p, 0, 1, env(0, 1), size, nil)
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return recvAt
	}
	const lateStart = 200 * units.Microsecond
	t0 := late(0)         // expected (pre-posted): delivered straight to the user buffer
	t1 := late(lateStart) // unexpected: buffered, then drained after the post
	sincePost := t1.Sub(units.Time(lateStart))
	drainFloor := DefaultParams().UnexpectedCopyRate.TimeFor(16 * units.KiB)
	// By the time the late receive is posted the data has long arrived, so
	// the remaining delay is dominated by the system-buffer drain copy.
	if sincePost < drainFloor {
		t.Fatalf("unexpected path completed %v after post, want >= drain copy %v", sincePost, drainFloor)
	}
	if sincePost >= units.Duration(t0) {
		t.Fatalf("drain (%v) should be cheaper than a full pre-posted transfer (%v)", sincePost, units.Duration(t0))
	}
}

func TestIndependentProgressRendezvousWhileComputing(t *testing.T) {
	// The defining Elan behaviour: a pre-posted receive completes its
	// rendezvous while BOTH hosts are busy computing. Only NICs talk.
	eng := sim.NewEngine()
	net := testNet(t, eng, 2)
	size := units.Bytes(1 * units.MiB)
	var recvDoneAt units.Time
	var recv *Recv
	eng.Spawn("recv", func(p *sim.Proc) {
		recv = net.NIC(1).RxPost(p, 1, env(0, 3))
		p.Sleep(100 * units.Millisecond) // compute, never touching MPI
		if !recv.Done.Fired() {
			t.Error("rendezvous did not progress during compute")
			return
		}
		recvDoneAt = recv.Done.FiredAt()
	})
	eng.Spawn("send", func(p *sim.Proc) {
		net.NIC(0).TxPost(p, 0, 1, env(0, 3), size, nil)
		p.Sleep(100 * units.Millisecond) // compute
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if recvDoneAt == 0 || recvDoneAt > units.Time(10*units.Millisecond) {
		t.Fatalf("rendezvous completed at %v; expected well before compute ends", recvDoneAt)
	}
}

func TestPerSenderOrderingPreserved(t *testing.T) {
	// Rank 0 alternates 64 KiB rendezvous and empty eager sends with the
	// same tag to rank 7 across the spines of an adaptive 2-level Clos, so
	// envelopes overtake one another on the wire. Receives must still
	// match in program order.
	eng := sim.NewEngine()
	net := testClos(t, eng, 8, 4)
	seq := &net.NIC(7).portOf(7).seq
	const n = 20
	var got []interface{}
	held := 0
	eng.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r := net.NIC(7).RxPost(p, 7, env(0, 5))
			p.Wait(r.Done)
			got = append(got, r.Payload)
		}
	})
	eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			size := 64 * units.KiB
			if i%2 == 1 {
				size = 0
			}
			net.NIC(0).TxPost(p, 0, 7, env(0, 5), size, i)
		}
	})
	eng.Spawn("watch", func(p *sim.Proc) {
		for len(got) < n {
			held = max(held, seq.Pending(0))
			p.Sleep(10 * units.Nanosecond)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if held == 0 {
		t.Fatal("the sequencer never held an envelope back: nothing was reordered")
	}
	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d out of order: got %v", i, got)
		}
	}
}

func TestNoConnectionSetupNeeded(t *testing.T) {
	// Connectionless: first message to a brand-new peer costs the same as
	// to a warmed-up one.
	eng := sim.NewEngine()
	net := testNet(t, eng, 3)
	var d1, d2 units.Duration
	eng.Spawn("recv1", func(p *sim.Proc) {
		r := net.NIC(1).RxPost(p, 1, env(0, 0))
		p.Wait(r.Done)
		d1 = units.Duration(p.Now())
	})
	eng.Spawn("send", func(p *sim.Proc) {
		net.NIC(0).TxPost(p, 0, 1, env(0, 0), 1024, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	eng2 := sim.NewEngine()
	net2 := testNet(t, eng2, 3)
	eng2.Spawn("recv2", func(p *sim.Proc) {
		r := net2.NIC(2).RxPost(p, 2, env(0, 0))
		p.Wait(r.Done)
		d2 = units.Duration(p.Now())
	})
	eng2.Spawn("send", func(p *sim.Proc) {
		net2.NIC(0).TxPost(p, 0, 2, env(0, 0), 1024, nil)
	})
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("peer cost differs: %v vs %v (should be connectionless)", d1, d2)
	}
}

func TestIntraNodeSendPanics(t *testing.T) {
	eng := sim.NewEngine()
	f, err := fabric.New(eng, 2, 64, fabric.Params{
		LinkBandwidth: units.GBps, MTU: 2 * units.KiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ranks 0,1 both on node 0.
	net := NewNetwork(eng, f, DefaultParams(), func(rank int) int { return 0 })
	net.NIC(0).AttachRank(0)
	net.NIC(0).AttachRank(1)
	eng.Spawn("send", func(p *sim.Proc) {
		net.NIC(0).TxPost(p, 0, 1, env(0, 0), 100, nil)
	})
	if err := eng.Run(); err == nil {
		t.Fatal("expected panic error for intra-node NIC send")
	}
}

func TestQueueStats(t *testing.T) {
	eng := sim.NewEngine()
	net := testNet(t, eng, 2)
	eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			net.NIC(0).TxPost(p, 0, 1, env(0, i), 512, nil)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	_, maxUnex := net.NIC(1).QueueStats()
	if maxUnex != 5 {
		t.Fatalf("max unexpected = %d, want 5", maxUnex)
	}
	if net.NIC(0).Sends != 5 || net.NIC(1).Unexpected != 5 {
		t.Fatalf("counters: sends=%d unexpected=%d", net.NIC(0).Sends, net.NIC(1).Unexpected)
	}
}
