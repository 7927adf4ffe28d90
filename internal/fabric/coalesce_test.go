package fabric

import (
	"slices"
	"testing"

	"repro/internal/metrics"
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
// message's delivery time (by slot), the order in which the messages were
// delivered, and every server's final accounting.
type stormOutcome struct {
	fired  []units.Time
	order  []int
	final  units.Time
	busy   []units.Time
	total  []units.Duration
	served []uint64
}

// deliver records message slot's delivery when done fires.
func (out *stormOutcome) deliver(eng *sim.Engine, slot int, done *sim.Signal) {
	done.OnFire(func() {
		out.fired[slot] = eng.Now()
		out.order = append(out.order, slot)
	})
}

// account records the final clock and every server's accounting, links
// first, then host buses.
func (out *stormOutcome) account(eng *sim.Engine, links, hosts []*sim.Server) {
	out.final = eng.Now()
	for _, srvs := range [][]*sim.Server{links, hosts} {
		for _, srv := range srvs {
			out.busy = append(out.busy, srv.BusyUntil())
			out.total = append(out.total, srv.BusyTotal())
			out.served = append(out.served, srv.Served())
		}
	}
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
	if len(a.busy) != len(b.busy) {
		t.Fatalf("seed %d: %d servers (%s) != %d (%s)", seed, len(a.busy), aName, len(b.busy), bName)
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

// stormNet is what a storm drives: a Fabric, or the reference model.
type stormNet interface {
	Send(src, dst int, size units.Bytes) *sim.Signal
	HostBus(node int) *sim.Server
}

// A storm schedules randomized traffic on net, a pure function of seed,
// and records every delivery in out as it fires.
type storm func(eng *sim.Engine, net stormNet, params Params, nodes int, seed uint64, out *stormOutcome)

// runStorm is the general storm: bursts, chained request/reply pairs,
// overlapping flows, and direct host-bus touches (the doorbell pattern).
func runStorm(eng *sim.Engine, net stormNet, _ Params, nodes int, seed uint64, out *stormOutcome) {
	r := rng.New(seed)
	sizes := []units.Bytes{0, 1, 500, 2 * units.KiB, 3000, 8 * units.KiB,
		64 * units.KiB, 1 * units.MiB}
	const msgs = 60
	out.fired = make([]units.Time, 2*msgs)
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
			done := net.Send(src, dst, size)
			out.deliver(eng, slot, done)
			if chained {
				done.OnFire(func() {
					out.deliver(eng, msgs+slot, net.Send(dst, src, replySize))
				})
			}
		})
		// Doorbell-style direct host-bus traffic, bypassing Send.
		if net.HostBus(src) != nil && r.Intn(4) == 0 {
			node := r.Intn(nodes)
			when := units.Time(r.Intn(50_000_000))
			d := units.Duration(r.Intn(2000)) * units.Nanosecond
			eng.At(when, func() { net.HostBus(node).Serve(d) })
		}
	}
}

// runFabric runs a storm on a fresh Fabric that setup configures, checks
// that no coalescing window or in-flight refcount outlived the run, and
// returns the outcome.
func runFabric(t *testing.T, c stormFabric, gen storm, seed uint64, setup func(*Fabric)) stormOutcome {
	t.Helper()
	eng := sim.NewEngine()
	f := mustNew(t, eng, c.nodes, c.radix, c.params)
	setup(f)
	var out stormOutcome
	gen(eng, f, c.params, c.nodes, seed, &out)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	requireDrained(t, f)
	out.account(eng, f.links, f.hosts)
	return out
}

// requireDrained fails the test if a coalescing window or an in-flight
// refcount outlived the run.
func requireDrained(t *testing.T, f *Fabric) {
	t.Helper()
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
				f.coalesce = mode
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

// TestCoalescedTieOrder pins the one thing coalescing changes: the order
// in which messages delivered in the same picosecond fire. Expanding a
// window re-issues its message's pending chunk events then, so they take
// seqs in expansion order, not in Send order as in the chunk model. In the
// tie storm on the "nohost" tie fabric, seed 48, messages 2 (4→1) and 8
// (3→0), one chunk each, are sent at 0 ps in that order and both open
// windows. The next sends into node 0 and node 1 expand 8's window first,
// so 8 fires first, although the two share no server and both land at
// 4.396 µs. Delivery times and server accounting are the reference's
// (TestTrainKeysExact). DESIGN §9.2 states this; should the orders come to
// agree, update it there.
func TestCoalescedTieOrder(t *testing.T) {
	c := tieFabrics()[0]
	const seed = 48
	on := runFabric(t, c, tieStorm, seed, func(*Fabric) {})
	off := runFabric(t, c, tieStorm, seed, func(f *Fabric) { f.coalesce = false })
	requireSameOutcome(t, seed, on, off, "coalesced", "chunked")
	at := units.Time(4396 * units.Nanosecond)
	if on.fired[2] != at || on.fired[8] != at {
		t.Fatalf("messages 2 and 8 delivered at %v and %v, want both at %v", on.fired[2], on.fired[8], at)
	}
	if got := on.order[:2]; !slices.Equal(got, []int{8, 2}) {
		t.Errorf("coalesced: first deliveries %v, want [8 2]", got)
	}
	if got := off.order[:2]; !slices.Equal(got, []int{2, 8}) {
		t.Errorf("chunked: first deliveries %v, want [2 8]", got)
	}
	if !slices.Equal(on.order[2:], off.order[2:]) {
		t.Errorf("later deliveries differ:\n%v coalesced\n%v chunked", on.order[2:], off.order[2:])
	}
}

// TestCoalescingDisabledUnderMetrics pins the policy: a fabric built on
// an engine with a registry must never open windows, so per-chunk
// instruments see every chunk.
func TestCoalescingDisabledUnderMetrics(t *testing.T) {
	bare, err := New(sim.NewEngine(), 2, 8, ibTestParams())
	if err != nil {
		t.Fatal(err)
	}
	if !bare.coalesce {
		t.Fatal("coalescing should default on without a registry")
	}
	eng := sim.NewEngine()
	eng.SetMetrics(metrics.New(), "test")
	f, err := New(eng, 2, 8, ibTestParams())
	if err != nil {
		t.Fatal(err)
	}
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
				f.coalesce = mode.coalesce
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
