package fabric

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// The fabric configurations of the paper's experiments (values mirror
// platform.IBFabricParams / ElanFabricParams; the fabric package cannot
// import platform). Every fig1/fig2 sweep runs on one of these two
// parameter sets, at node counts from 2 to 32 — all single-chassis — so
// the storm grid below covers every experiment fabric, plus small-radix
// variants that force a 2-level Clos and a host-bus-disabled variant.
func ibTestParams() Params {
	return Params{
		LinkBandwidth:  1000 * units.MBps,
		WireLatency:    50 * units.Nanosecond,
		ChassisLatency: 200 * units.Nanosecond,
		MTU:            2 * units.KiB,
		PacketOverhead: 30,
		HostBandwidth:  880 * units.MBps,
		HostLatency:    400 * units.Nanosecond,
		Adaptive:       false,
	}
}

func elanTestParams() Params {
	return Params{
		LinkBandwidth:  1300 * units.MBps,
		WireLatency:    30 * units.Nanosecond,
		ChassisLatency: 150 * units.Nanosecond,
		MTU:            2 * units.KiB,
		PacketOverhead: 24,
		HostBandwidth:  940 * units.MBps,
		HostLatency:    400 * units.Nanosecond,
		Adaptive:       true,
	}
}

// stormOutcome captures everything observable about a storm run: each
// message's delivery time (in injection order) and every server's final
// accounting.
type stormOutcome struct {
	fired  []units.Time
	final  units.Time
	busy   []units.Time
	total  []units.Duration
	served []uint64
}

// requireSameOutcome fails the test unless two storm runs of one seed
// delivered every message at the same time, ended at the same clock, and
// left every server with the same accounting.
func requireSameOutcome(t *testing.T, seed uint64, a, b stormOutcome, aName, bName string) {
	t.Helper()
	for i := range a.fired {
		if a.fired[i] != b.fired[i] {
			t.Fatalf("seed %d msg %d: delivery %v (%s) != %v (%s)",
				seed, i, a.fired[i], aName, b.fired[i], bName)
		}
	}
	if a.final != b.final {
		t.Fatalf("seed %d: final clock %v (%s) != %v (%s)", seed, a.final, aName, b.final, bName)
	}
	for i := range a.busy {
		if a.busy[i] != b.busy[i] || a.total[i] != b.total[i] || a.served[i] != b.served[i] {
			t.Fatalf("seed %d server %d: accounting diverged (busy %v/%v total %v/%v served %d/%d)",
				seed, i, a.busy[i], b.busy[i], a.total[i], b.total[i], a.served[i], b.served[i])
		}
	}
}

// stormFabric is one fabric configuration a storm runs on.
type stormFabric struct {
	name   string
	params Params
	radix  int
	nodes  int
}

// experimentFabrics lists every experiment fabric configuration, plus
// two-level Clos variants (deterministic and adaptive spine crossing) and
// a host-bus-disabled variant.
func experimentFabrics() []stormFabric {
	nohost := ibTestParams()
	nohost.HostBandwidth = 0
	return []stormFabric{
		{"ib/2", ibTestParams(), 96, 2},
		{"ib/4", ibTestParams(), 96, 4},
		{"ib/32", ibTestParams(), 96, 32},
		{"elan/2", elanTestParams(), 64, 2},
		{"elan/4", elanTestParams(), 64, 4},
		{"elan/32", elanTestParams(), 64, 32},
		{"ib/2level", ibTestParams(), 8, 12},
		{"elan/2level", elanTestParams(), 8, 12},
		{"ib/nohost", nohost, 96, 8},
	}
}

// stormMode selects how a storm's fabric runs the same traffic.
type stormMode struct {
	coalesce bool // open coalescing windows where eligible
	// armed calls EnableFaults but installs no fault, so every chunk keeps
	// its own delivery event while timing stays fault-free.
	armed bool
}

// runStorm injects a randomized traffic pattern — bursts, chained
// request/reply pairs, overlapping flows, and direct host-bus touches
// (the doorbell pattern) — and returns the outcome. The schedule is a
// pure function of seed, so two runs differing only in mode are directly
// comparable.
func runStorm(t *testing.T, params Params, radix, nodes int, seed uint64, mode stormMode) stormOutcome {
	t.Helper()
	eng := sim.NewEngine()
	f, err := New(eng, nodes, radix, params)
	if err != nil {
		t.Fatal(err)
	}
	f.SetCoalescing(mode.coalesce)
	if mode.armed {
		f.EnableFaults(seed)
	}

	r := rng.New(seed)
	sizes := []units.Bytes{0, 1, 500, 2 * units.KiB, 3000, 8 * units.KiB,
		64 * units.KiB, 1 * units.MiB}
	const msgs = 60
	out := stormOutcome{fired: make([]units.Time, 2*msgs)}

	record := func(slot int, done *sim.Signal) {
		done.OnFire(func() { out.fired[slot] = eng.Now() })
	}
	for i := 0; i < msgs; i++ {
		src := r.Intn(nodes)
		dst := r.Intn(nodes - 1)
		if dst >= src {
			dst++
		}
		size := sizes[r.Intn(len(sizes))]
		at := units.Time(r.Intn(50_000_000)) // 0-50 us, ps granularity
		slot := i
		chained := r.Intn(3) == 0
		replySize := sizes[r.Intn(len(sizes))]
		eng.At(at, func() {
			done := f.Send(src, dst, size)
			record(slot, done)
			if chained {
				done.OnFire(func() {
					record(msgs+slot, f.Send(dst, src, replySize))
				})
			}
		})
		// Doorbell-style direct host-bus traffic, bypassing Send.
		if f.HostBus(src) != nil && r.Intn(4) == 0 {
			node := r.Intn(nodes)
			when := units.Time(r.Intn(50_000_000))
			d := units.Duration(r.Intn(2000)) * units.Nanosecond
			eng.At(when, func() { f.HostBus(node).Serve(d) })
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(f.windows) != 0 {
		t.Fatalf("windows leaked: %d still open after drain", len(f.windows))
	}
	for id, u := range f.linkUsers {
		if u != 0 {
			t.Fatalf("link %d refcount leaked: %d", id, u)
		}
	}
	for n, u := range f.hostUsers {
		if u != 0 {
			t.Fatalf("host %d refcount leaked: %d", n, u)
		}
	}

	out.final = eng.Now()
	for _, srv := range f.links {
		out.busy = append(out.busy, srv.BusyUntil())
		out.total = append(out.total, srv.BusyTotal())
		out.served = append(out.served, srv.Served())
	}
	for _, srv := range f.hosts {
		out.busy = append(out.busy, srv.BusyUntil())
		out.total = append(out.total, srv.BusyTotal())
		out.served = append(out.served, srv.Served())
	}
	return out
}

// TestCoalescingExact proves the tentpole equivalence claim: across
// every experiment fabric configuration, randomized contending traffic
// delivers at bit-identical times — and leaves bit-identical per-server
// accounting — whether messages are coalesced or fully chunk-expanded.
func TestCoalescingExact(t *testing.T) {
	for _, c := range experimentFabrics() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				on := runStorm(t, c.params, c.radix, c.nodes, seed, stormMode{coalesce: true})
				off := runStorm(t, c.params, c.radix, c.nodes, seed, stormMode{})
				requireSameOutcome(t, seed, on, off, "coalesced", "chunked")
			}
		})
	}
}

// TestEarlyRetirementExact checks the faults-off delivery rule: only the
// chunk served last at a message's last stage keeps a delivery event,
// and the others retire at service (in step, and in window expansion).
// Arming fault injection without installing a fault keeps every chunk's
// delivery event and changes no timing, so across every experiment fabric
// the same coalesced storm must deliver every message at the same time,
// and leave the same per-server accounting, armed or not.
func TestEarlyRetirementExact(t *testing.T) {
	for _, c := range experimentFabrics() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				early := runStorm(t, c.params, c.radix, c.nodes, seed, stormMode{coalesce: true})
				each := runStorm(t, c.params, c.radix, c.nodes, seed, stormMode{coalesce: true, armed: true})
				requireSameOutcome(t, seed, early, each, "early retirement", "per-chunk delivery")
			}
		})
	}
}

// TestCoalescedMatchesMinLatency checks the closed form against the
// chunk recurrence on an idle fabric: a lone message's delivery time
// must equal MinLatency exactly in both modes, across sizes that cover
// zero-size headers, sub-MTU, exact-MTU, and many-chunk messages.
func TestCoalescedMatchesMinLatency(t *testing.T) {
	for _, mode := range []bool{true, false} {
		for _, params := range []Params{ibTestParams(), elanTestParams()} {
			sizes := []units.Bytes{0, 1, 2047, 2 * units.KiB, 2049,
				8 * units.KiB, 1 * units.MiB}
			for _, size := range sizes {
				eng := sim.NewEngine()
				f, err := New(eng, 4, 16, params)
				if err != nil {
					t.Fatal(err)
				}
				f.SetCoalescing(mode)
				done := f.Send(0, 2, size)
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				want := units.Time(f.MinLatency(0, 2, size))
				if done.FiredAt() != want {
					t.Fatalf("coalesce=%v size=%v: delivered %v want %v",
						mode, size, done.FiredAt(), want)
				}
			}
		}
	}
}

// TestCoalescingDisabledUnderMetrics pins the policy: a fabric built on
// an engine with a registry must never open windows, so per-chunk
// instruments see every chunk.
func TestCoalescingDisabledUnderMetrics(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, 2, 8, ibTestParams())
	if err != nil {
		t.Fatal(err)
	}
	if !f.coalesce {
		t.Fatal("coalescing should default on without a registry")
	}
	f.SetCoalescing(true)
	f.linkBytes = make([]units.Bytes, f.clos.NumLinks()) // simulate live instruments
	f.Send(0, 1, 64*units.KiB)
	if len(f.windows) != 0 {
		t.Fatal("window opened while per-chunk instruments are live")
	}
}

// BenchmarkFabricSend measures the Send hot path at the satellite's
// three shapes — 0 B (header only), one MTU, and a 64-chunk message —
// with the coalescing fast path on and off.
func BenchmarkFabricSend(b *testing.B) {
	shapes := []struct {
		name string
		size units.Bytes
	}{
		{"0B", 0},
		{"1MTU", 2 * units.KiB},
		{"64chunk", 128 * units.KiB},
	}
	for _, mode := range []struct {
		name     string
		coalesce bool
	}{{"coalesced", true}, {"chunked", false}} {
		for _, sh := range shapes {
			b.Run(mode.name+"/"+sh.name, func(b *testing.B) {
				eng := sim.NewEngine()
				f, err := New(eng, 2, 8, ibTestParams())
				if err != nil {
					b.Fatal(err)
				}
				f.SetCoalescing(mode.coalesce)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.Send(0, 1, sh.size)
					if err := eng.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
