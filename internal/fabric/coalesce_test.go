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
// delivered, and every server's final accounting. A run with a registry
// also keeps what it recorded: the chunk-wait histogram and the payload
// bytes per link.
type stormOutcome struct {
	fired  []units.Time
	order  []int
	final  units.Time
	busy   []units.Time
	total  []units.Duration
	served []uint64

	waits     metrics.HistogramPoint
	linkBytes []units.Bytes
}

// waitHist names the fabric's chunk-wait histogram.
const waitHist = "fabric.chunk_queue_wait_ns"

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

// servers lists the servers of the fabric's stage table: its links, by
// topology.LinkID, and its host buses, by node (none without a host
// stage).
func (f *Fabric) servers() (links, hosts []*sim.Server) {
	all := make([]*sim.Server, len(f.stageTab))
	for i := range f.stageTab {
		all[i] = f.stageTab[i].srv
	}
	nl := f.clos.NumLinks()
	return all[:nl:nl], all[nl:]
}

// observe keeps reg's chunk-wait histogram and a copy of linkBytes.
func (out *stormOutcome) observe(reg *metrics.Registry, linkBytes []units.Bytes) {
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == waitHist {
			out.waits = h
		}
	}
	out.linkBytes = slices.Clone(linkBytes)
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
	sizes := []units.Bytes{0, 1, 500, 2 * units.KiB, 3000, 8 * units.KiB,
		64 * units.KiB, 1 * units.MiB}
	at := func(r *rng.Source) units.Time { return units.Time(r.Intn(50_000_000)) } // 0-50 us, ps granularity
	ring := func(r *rng.Source) units.Duration { return units.Duration(r.Intn(2000)) * units.Nanosecond }
	traffic(eng, net, nodes, rng.New(seed), sizes, at, ring, out)
}

// traffic schedules a storm's 60 messages between random distinct nodes,
// their sizes drawn from sizes and their send times by at. A third are
// chained to a reply, sent when they are delivered. With a host stage a
// quarter also add a doorbell-style touch of a random node's host bus,
// bypassing Send, at a time drawn by at and of a length drawn by ring.
func traffic(eng *sim.Engine, net stormNet, nodes int, r *rng.Source, sizes []units.Bytes,
	at func(*rng.Source) units.Time, ring func(*rng.Source) units.Duration, out *stormOutcome) {
	const msgs = 60
	out.fired = make([]units.Time, 2*msgs)
	for i := 0; i < msgs; i++ {
		src := r.Intn(nodes)
		dst := r.Intn(nodes - 1)
		if dst >= src {
			dst++
		}
		size := sizes[r.Intn(len(sizes))]
		sendAt := at(r)
		slot := i
		chained := r.Intn(3) == 0
		replySize := sizes[r.Intn(len(sizes))]
		eng.At(sendAt, func() {
			done := net.Send(src, dst, size)
			out.deliver(eng, slot, done)
			if chained {
				done.OnFire(func() {
					out.deliver(eng, msgs+slot, net.Send(dst, src, replySize))
				})
			}
		})
		if net.HostBus(src) != nil && r.Intn(4) == 0 {
			node := r.Intn(nodes)
			when := at(r)
			d := ring(r)
			eng.At(when, func() { net.HostBus(node).Serve(d) })
		}
	}
}

// runFabric runs a storm on a fresh Fabric that setup configures, with
// reg attached unless it is nil, checks that no message or coalescing
// window outlived the run, and returns the outcome.
func runFabric(t *testing.T, c stormFabric, gen storm, seed uint64, reg *metrics.Registry, setup func(*Fabric)) stormOutcome {
	t.Helper()
	eng := sim.NewEngine()
	if reg != nil {
		eng.SetMetrics(reg, c.name)
	}
	f := mustNew(t, eng, c.nodes, c.radix, c.params)
	setup(f)
	var out stormOutcome
	gen(eng, f, c.params, c.nodes, seed, &out)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	requireDrained(t, f)
	links, hosts := f.servers()
	out.account(eng, links, hosts)
	if reg != nil {
		out.observe(reg, f.linkBytes)
	}
	return out
}

// requireDrained fails the test if a message is still counted in flight
// or a coalescing window is still open after the run.
func requireDrained(t *testing.T, f *Fabric) {
	t.Helper()
	if f.inflight != 0 {
		t.Fatalf("in-flight count leaked: %d after drain", f.inflight)
	}
	if f.open != nil {
		t.Fatal("coalescing window still open after drain")
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

// TestCoalescedTieOrder pins what coalescing still changes about the
// order of same-picosecond events, and what it no longer does.
//
// Deliveries of different messages fire in the chunk model's order: a
// window is open only while its message is alone in the fabric, so every
// later message takes later seqs in both models. In the tie storm on the
// "nohost" tie fabric, seed 48, messages 2 (4→1) and 8 (3→0), one chunk
// each, are sent at 0 ps in that order and both land at 4.396 µs on
// disjoint paths. When windows could coexist on disjoint paths, 8's window
// expanded first and 8 fired first; now 2 fires first in both modes.
//
// What remains are the window's own events, which take their seqs when
// the window opens or expands, not where the chunk model takes them. A
// lone 8 KiB message on the 2-node IB fabric coalesces at 0 ps and is
// delivered at 17.06282 µs (MinLatency). Two events scheduled while its
// window is open see the difference:
//
//   - A reader scheduled at 1 ps for the delivery instant. The chunk
//     model schedules the delivery after the reader, so the reader sees
//     the message undelivered; the window's completion took its seq at
//     Send, so the reader sees it delivered.
//   - A 100 ns doorbell on node 1's host bus, scheduled just after the
//     last chunk reaches the ejection link, for the instant that chunk
//     reaches the host bus. The chunk model scheduled that arrival first,
//     so the chunk is served first. The window expands at the doorbell and
//     re-issues the arrival behind it, so the doorbell is served first and
//     the message is delivered 100 ns late.
//
// DESIGN §9.2 states this; should the two come to agree, update it there.
func TestCoalescedTieOrder(t *testing.T) {
	c := tieFabrics()[0]
	const seed = 48
	on := runFabric(t, c, tieStorm, seed, nil, func(*Fabric) {})
	off := runFabric(t, c, tieStorm, seed, nil, func(f *Fabric) { f.coalesce = false })
	requireSameOutcome(t, seed, on, off, "coalesced", "chunked")
	at := units.Time(4396 * units.Nanosecond)
	if on.fired[2] != at || on.fired[8] != at {
		t.Fatalf("messages 2 and 8 delivered at %v and %v, want both at %v", on.fired[2], on.fired[8], at)
	}
	for _, run := range []struct {
		name string
		out  stormOutcome
	}{{"coalesced", on}, {"chunked", off}} {
		if got := run.out.order[:2]; !slices.Equal(got, []int{2, 8}) {
			t.Errorf("%s: first deliveries %v, want [2 8]", run.name, got)
		}
	}
	if !slices.Equal(on.order, off.order) {
		t.Errorf("deliveries differ:\n%v coalesced\n%v chunked", on.order, off.order)
	}

	const size = 8 * units.KiB
	minLat := units.Time(17_062_820 * units.Picosecond)
	// The last chunk's arrivals at the ejection link and at node 1's host
	// bus, read off the window; they are the same in both modes.
	probe := mustNew(t, sim.NewEngine(), 2, 96, ibTestParams())
	probe.Send(0, 1, size)
	w := probe.open
	if w == nil {
		t.Fatal("a lone 8 KiB message did not coalesce")
	}
	if got := units.Time(probe.MinLatency(0, 1, size)); got != minLat {
		t.Fatalf("8 KiB delivers at %v, want 17.06282µs", got)
	}
	ej, bus := w.aLast[w.m-2], w.aLast[w.m-1]
	// lone sends the message on a fresh fabric, lets schedule add events,
	// runs, and reports the delivery time.
	lone := func(coalesce bool, schedule func(eng *sim.Engine, f *Fabric, done *sim.Signal)) units.Time {
		eng := sim.NewEngine()
		f := mustNew(t, eng, 2, 96, ibTestParams())
		f.coalesce = coalesce
		done := f.Send(0, 1, size)
		schedule(eng, f, done)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return done.FiredAt()
	}

	reads := func(coalesce bool) bool {
		var seen bool
		deliver := lone(coalesce, func(eng *sim.Engine, _ *Fabric, done *sim.Signal) {
			eng.At(1, func() { eng.At(minLat, func() { seen = done.Fired() }) })
		})
		if deliver != minLat {
			t.Fatalf("coalesce=%v: delivered at %v, want %v", coalesce, deliver, minLat)
		}
		return seen
	}
	if !reads(true) {
		t.Error("coalesced: the reader at the delivery instant saw the message undelivered")
	}
	if reads(false) {
		t.Error("chunked: the reader at the delivery instant saw the message delivered")
	}

	doorbell := func(coalesce bool) units.Time {
		return lone(coalesce, func(eng *sim.Engine, f *Fabric, _ *sim.Signal) {
			eng.At(ej+1, func() { eng.At(bus, func() { f.HostBus(1).Serve(100 * units.Nanosecond) }) })
		})
	}
	if got, want := doorbell(true), minLat.Add(100*units.Nanosecond); got != want {
		t.Errorf("coalesced: doorbell at the last chunk's host-bus arrival; delivered at %v, want %v", got, want)
	}
	if got := doorbell(false); got != minLat {
		t.Errorf("chunked: doorbell at the last chunk's host-bus arrival; delivered at %v, want %v", got, minLat)
	}
}

// BenchmarkFabricSend measures Send and the run that drains it, with the
// coalescing fast path on and off: a bare header (0B), one MTU, a 64-chunk
// message, and a 64-chunk message followed at the same instant by a
// second on a disjoint path (64chunk+disjoint). In that last shape the
// first message's window is open when the second Send runs, so with
// coalescing on every iteration expands it.
func BenchmarkFabricSend(b *testing.B) {
	shapes := []struct {
		name     string
		size     units.Bytes
		disjoint bool
	}{
		{"0B", 0, false},
		{"1MTU", 2 * units.KiB, false},
		{"64chunk", 128 * units.KiB, false},
		{"64chunk+disjoint", 128 * units.KiB, true},
	}
	for _, mode := range []struct {
		name     string
		coalesce bool
	}{{"coalesced", true}, {"chunked", false}} {
		for _, sh := range shapes {
			b.Run(mode.name+"/"+sh.name, func(b *testing.B) {
				eng := sim.NewEngine()
				f, err := New(eng, 4, 8, ibTestParams())
				if err != nil {
					b.Fatal(err)
				}
				f.coalesce = mode.coalesce
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.Send(0, 1, sh.size)
					if sh.disjoint {
						f.Send(2, 3, sh.size)
					}
					if err := eng.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSimultaneousSend is b_eff's shape at the fabric's level: eight
// sources each send a 64-chunk message to a distinct destination in one
// picosecond, so the first message's window is expanded at the instant it
// opened. Each op builds a fresh fabric, so its pools grow from empty and
// B/op counts the chunk states the pattern needs.
func BenchmarkSimultaneousSend(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		f, err := New(eng, 16, 16, ibTestParams())
		if err != nil {
			b.Fatal(err)
		}
		for src := 0; src < 8; src++ {
			f.Send(src, 8+src, 64*f.params.MTU)
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingSend is bulk's shape at the fabric's level: one source
// sends sixteen 64-chunk messages back to back to one destination in one
// picosecond, as a window of nonblocking sends does, so all sixteen share
// one path and are in flight at once. Each op builds a fresh fabric, so
// B/op counts the message states and chunk states the stream needs.
func BenchmarkStreamingSend(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		f, err := New(eng, 16, 16, ibTestParams())
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 16; k++ {
			f.Send(0, 1, 64*f.params.MTU)
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
