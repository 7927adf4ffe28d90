package fabric

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// elanFaultParams is the Elan configuration in fault-injection trim:
// link-level hardware retry, as platform.ElanFabricParams sets it.
func elanFaultParams() Params {
	p := elanTestParams()
	p.HWRetry = true
	p.HWRetryDelay = 500 * units.Nanosecond
	return p
}

// runFaultStorm is runStorm under a deterministic fault schedule: before
// the traffic runs, a seed-derived set of derate/loss/down windows is
// scheduled onto random links through ordinary events. The schedule is a
// pure function of seed, so coalesce on/off runs see identical faults. It
// returns the storm's outcome and the fabric's fault totals.
func runFaultStorm(t *testing.T, params Params, radix, nodes int, seed uint64, coalesce bool) (stormOutcome, FaultStats) {
	t.Helper()
	eng := sim.NewEngine()
	f, err := New(eng, nodes, radix, params)
	if err != nil {
		t.Fatal(err)
	}
	f.coalesce = coalesce
	f.EnableFaults(seed)

	fr := rng.New(seed ^ 0xfa171)
	nLinks := f.clos.NumLinks()
	for w := 0; w < 8; w++ {
		link := topology.LinkID(fr.Intn(nLinks))
		at := units.Time(fr.Intn(60_000_000))                            // 0-60 us
		dur := units.Duration(10_000+fr.Intn(40_000)) * units.Nanosecond // 10-50 us
		var lf LinkFault
		switch fr.Intn(3) {
		case 0:
			lf.BandwidthScale = 0.3 + 0.6*fr.Float64()
			lf.ExtraLatency = units.Duration(fr.Intn(1000)) * units.Nanosecond
		case 1:
			lf.LossProb = 0.05 + 0.1*fr.Float64()
		default:
			lf.Down = true
		}
		eng.At(at, func() { f.SetLinkFault(link, lf) })
		eng.At(at.Add(dur), func() { f.ClearLinkFault(link) })
	}

	r := rng.New(seed)
	sizes := []units.Bytes{0, 1, 500, 2 * units.KiB, 3000, 8 * units.KiB,
		64 * units.KiB, 1 * units.MiB}
	const msgs = 60
	out := stormOutcome{fired: make([]units.Time, 2*msgs)}
	for i := 0; i < msgs; i++ {
		src := r.Intn(nodes)
		dst := r.Intn(nodes - 1)
		if dst >= src {
			dst++
		}
		size := sizes[r.Intn(len(sizes))]
		at := units.Time(r.Intn(50_000_000))
		slot := i
		chained := r.Intn(3) == 0
		replySize := sizes[r.Intn(len(sizes))]
		eng.At(at, func() {
			done := f.Send(src, dst, size)
			out.deliver(eng, slot, done)
			if chained {
				done.OnFire(func() {
					out.deliver(eng, msgs+slot, f.Send(dst, src, replySize))
				})
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	requireDrained(t, f)
	links, _ := f.servers()
	out.account(eng, links, nil)
	return out, f.FaultStats()
}

// TestFaultStormCoalescingExact extends the equivalence of coalescing and
// the chunk model to faulty fabrics, and pins the outcome: on each fabric,
// randomized traffic meets a randomized fault schedule (deratings, loss
// windows, down windows) for seeds 1 to 4, and with coalescing on and off
// every message's delivery time, every link's accounting and the fault
// totals hash to the same recorded digest. Messages the drop model kills
// are delivered at time zero in the hash.
func TestFaultStormCoalescingExact(t *testing.T) {
	cases := []struct {
		stormFabric
		want string
	}{
		{stormFabric{"ib/drop-model", ibTestParams(), 96, 8}, "e2a09f3ec478b0ad"},
		{stormFabric{"elan/hw-retry", elanFaultParams(), 64, 8}, "9db11aedde1b2bdc"},
		{stormFabric{"ib/2level", ibTestParams(), 8, 12}, "cc558709bdd03a7d"},
		{stormFabric{"elan/2level", elanFaultParams(), 8, 12}, "3fbca33389fd92fe"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, coalesce := range []bool{true, false} {
				h := sha256.New()
				for seed := uint64(1); seed <= 4; seed++ {
					out, stats := runFaultStorm(t, c.params, c.radix, c.nodes, seed, coalesce)
					fmt.Fprintf(h, "%d %d %d %d %d %d %+v\n", seed, out.fired, out.final, out.busy, out.total, out.served, stats)
				}
				if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != c.want {
					t.Errorf("coalesce=%v: digest %s, want %s", coalesce, got, c.want)
				}
			}
		})
	}
}

// TestFaultMidMessageWindowExpansion is the targeted regression for the
// SetLinkFault/coalescing interaction: a fault landing on a link while a
// coalesced message is in flight must expand the window back to the exact
// chunk model. That holds for a link the window does not use, too: node
// 1's injection link carries nothing of the 0→1 message, and the fault
// expands it all the same. With coalescing on and off, the delivery time
// and the fault totals must equal the recorded ones; a delivery at zero
// means the drop model killed the message.
func TestFaultMidMessageWindowExpansion(t *testing.T) {
	onPath := func(f *Fabric) topology.LinkID { return f.clos.Injection(0) }
	offPath := func(f *Fabric) topology.LinkID { return f.clos.Injection(1) }
	cases := []struct {
		name   string
		params Params
		fault  LinkFault
		link   func(*Fabric) topology.LinkID
		want   string
	}{
		{"ib/derate", ibTestParams(), LinkFault{BandwidthScale: 0.5, ExtraLatency: 200 * units.Nanosecond}, onPath,
			"1445037868ps {ChunksLost:0 ChunksRetried:0 ChunksRerouted:0 MessagesDropped:0 FaultWindows:1}"},
		{"ib/down", ibTestParams(), LinkFault{Down: true}, onPath,
			"0ps {ChunksLost:127 ChunksRetried:0 ChunksRerouted:0 MessagesDropped:1 FaultWindows:1}"},
		{"elan/loss", elanFaultParams(), LinkFault{LossProb: 0.1}, onPath,
			"1137930818ps {ChunksLost:19 ChunksRetried:19 ChunksRerouted:0 MessagesDropped:0 FaultWindows:1}"},
		{"elan/down", elanFaultParams(), LinkFault{Down: true}, onPath,
			"1433995392ps {ChunksLost:0 ChunksRetried:40929 ChunksRerouted:0 MessagesDropped:0 FaultWindows:1}"},
		{"ib/down/off-path", ibTestParams(), LinkFault{Down: true}, offPath,
			"1216635732ps {ChunksLost:0 ChunksRetried:0 ChunksRerouted:0 MessagesDropped:0 FaultWindows:1}"},
		{"elan/loss/off-path", elanFaultParams(), LinkFault{LossProb: 0.1}, offPath,
			"1134980507ps {ChunksLost:0 ChunksRetried:0 ChunksRerouted:0 MessagesDropped:0 FaultWindows:1}"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, coalesce := range []bool{true, false} {
				eng := sim.NewEngine()
				f, err := New(eng, 2, 96, c.params)
				if err != nil {
					t.Fatal(err)
				}
				f.coalesce = coalesce
				f.EnableFaults(11)
				var fired units.Time
				f.Send(0, 1, 1*units.MiB).OnFire(func() { fired = eng.Now() })
				if coalesce && f.open == nil {
					t.Fatal("expected a coalesced window")
				}
				link := c.link(f)
				// Strike mid-flight: well after injection started, well
				// before a 1 MiB transfer (~1.2 ms) can finish.
				at := units.Time(200 * units.Microsecond)
				eng.At(at, func() {
					f.SetLinkFault(link, c.fault)
					if f.open != nil {
						t.Errorf("window not expanded by mid-flight fault")
					}
				})
				// Lift the fault later so stalled chunks can drain.
				eng.At(at.Add(300*units.Microsecond), func() { f.ClearLinkFault(link) })
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				requireDrained(t, f)
				if got := fmt.Sprintf("%dps %+v", int64(fired), f.FaultStats()); got != c.want {
					t.Errorf("coalesce=%v: got %s\nwant %s", coalesce, got, c.want)
				}
			}
		})
	}
}

// TestHWRetryLossRecovers pins the Elan recovery model: every lost chunk
// is retried at the link level and the message still delivers — late, but
// delivered — with the retries visible in FaultStats.
func TestHWRetryLossRecovers(t *testing.T) {
	deliverAt := func(loss float64) (units.Time, FaultStats) {
		eng := sim.NewEngine()
		f, err := New(eng, 2, 96, elanFaultParams())
		if err != nil {
			t.Fatal(err)
		}
		f.EnableFaults(3)
		if loss > 0 {
			f.SetLinkFault(f.clos.Injection(0), LinkFault{LossProb: loss})
		}
		var at units.Time
		f.Send(0, 1, 256*units.KiB).OnFire(func() { at = eng.Now() })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return at, f.FaultStats()
	}
	clean, _ := deliverAt(0)
	lossy, stats := deliverAt(0.2)
	if lossy == 0 {
		t.Fatal("message not delivered under loss on an HWRetry fabric")
	}
	if stats.ChunksLost == 0 || stats.ChunksRetried < stats.ChunksLost {
		t.Fatalf("stats = %+v: every lost chunk should be retried", stats)
	}
	if stats.MessagesDropped != 0 {
		t.Fatalf("HWRetry fabric dropped a message: %+v", stats)
	}
	if lossy <= clean {
		t.Fatalf("lossy delivery %v not later than clean %v", lossy, clean)
	}
}

// TestDropModelKillsMessage pins the IB-side fabric contract: without
// hardware retry, a blackholed chunk kills the whole message — the done
// signal never fires — while unrelated traffic is untouched. Recovery is
// the transport's job (internal/ib arms retransmission timers).
func TestDropModelKillsMessage(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, 4, 96, ibTestParams())
	if err != nil {
		t.Fatal(err)
	}
	f.EnableFaults(5)
	f.SetLinkFault(f.clos.Injection(0), LinkFault{Down: true})
	var doomed, healthy bool
	f.Send(0, 1, 8*units.KiB).OnFire(func() { doomed = true })
	f.Send(2, 3, 8*units.KiB).OnFire(func() { healthy = true })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if doomed {
		t.Fatal("message through a down link delivered on a drop-model fabric")
	}
	if !healthy {
		t.Fatal("unrelated message was not delivered")
	}
	stats := f.FaultStats()
	if stats.MessagesDropped != 1 || stats.ChunksLost == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// The dead message must still retire.
	requireDrained(t, f)
}

// TestDownLinkStallsUntilRecovery: on an HWRetry fabric a chunk at a down
// link polls every HWRetryDelay and proceeds the moment the link returns.
func TestDownLinkStallsUntilRecovery(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, 2, 96, elanFaultParams())
	if err != nil {
		t.Fatal(err)
	}
	f.EnableFaults(7)
	link := f.clos.Injection(0)
	f.SetLinkFault(link, LinkFault{Down: true})
	up := units.Time(10 * units.Microsecond)
	eng.At(up, func() { f.ClearLinkFault(link) })
	var at units.Time
	f.Send(0, 1, 2*units.KiB).OnFire(func() { at = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at < up {
		t.Fatalf("delivered at %v, before the link came back at %v", at, up)
	}
	if stats := f.FaultStats(); stats.ChunksRetried == 0 {
		t.Fatalf("no stall polls recorded: %+v", stats)
	}
	// The stall resolves within one retry period of recovery plus the
	// unloaded path latency.
	slack := f.params.HWRetryDelay + f.MinLatency(0, 1, 2*units.KiB)
	if at > up.Add(slack) {
		t.Fatalf("delivered at %v, more than %v past recovery", at, slack)
	}
}

// TestRouteAroundDownSpine: adaptive fabrics steer chunks around a dead
// spine without stalling — the rerouted counter ticks, the retried counter
// does not.
func TestRouteAroundDownSpine(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, 8, 4, elanFaultParams()) // 4 leaves, 2 spines
	if err != nil {
		t.Fatal(err)
	}
	f.EnableFaults(9)
	for _, l := range f.clos.SpineLinks(0) {
		f.SetLinkFault(l, LinkFault{Down: true})
	}
	var at units.Time
	f.Send(0, 6, 64*units.KiB).OnFire(func() { at = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at == 0 {
		t.Fatal("message not delivered around the dead spine")
	}
	stats := f.FaultStats()
	if stats.ChunksRerouted == 0 {
		t.Fatalf("no reroutes recorded: %+v", stats)
	}
	if stats.ChunksRetried != 0 {
		t.Fatalf("adaptive route-around should not stall: %+v", stats)
	}
}

// TestDerateExtendsDelivery: bandwidth derating and extra latency slow the
// affected path but change nothing else.
func TestDerateExtendsDelivery(t *testing.T) {
	deliverAt := func(derated bool) units.Time {
		eng := sim.NewEngine()
		f, err := New(eng, 2, 96, ibTestParams())
		if err != nil {
			t.Fatal(err)
		}
		f.EnableFaults(1)
		if derated {
			f.SetLinkFault(f.clos.Injection(0),
				LinkFault{BandwidthScale: 0.5, ExtraLatency: units.Microsecond})
		}
		var at units.Time
		f.Send(0, 1, 64*units.KiB).OnFire(func() { at = eng.Now() })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	clean, slow := deliverAt(false), deliverAt(true)
	if slow <= clean {
		t.Fatalf("derated delivery %v not later than clean %v", slow, clean)
	}
}

func TestSetLinkFaultBeforeEnablePanics(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, 2, 96, ibTestParams())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetLinkFault before EnableFaults did not panic")
		}
	}()
	f.SetLinkFault(0, LinkFault{Down: true})
}
