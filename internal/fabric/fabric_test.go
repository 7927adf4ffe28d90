package fabric

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/units"
)

func testParams() Params {
	return Params{
		LinkBandwidth:  1 * units.GBps,
		WireLatency:    20 * units.Nanosecond,
		ChassisLatency: 100 * units.Nanosecond,
		MTU:            2 * units.KiB,
		PacketOverhead: 0,
	}
}

func mustNew(t *testing.T, eng *sim.Engine, nodes, radix int, p Params) *Fabric {
	t.Helper()
	f, err := New(eng, nodes, radix, p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// measure returns the simulated delivery time of a single unloaded message.
func measure(t *testing.T, nodes, radix int, p Params, src, dst int, size units.Bytes) units.Duration {
	t.Helper()
	eng := sim.NewEngine()
	f := mustNew(t, eng, nodes, radix, p)
	var at units.Time
	done := f.Send(src, dst, size)
	done.OnFire(func() { at = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return units.Duration(at)
}

func TestUnloadedLatencyMatchesClosedForm(t *testing.T) {
	p := testParams()
	for _, size := range []units.Bytes{0, 1, 100, 2048, 4096, 10000, 64 * units.KiB} {
		for _, route := range []struct{ nodes, radix, src, dst int }{
			{4, 8, 0, 1},   // single chassis
			{32, 8, 0, 31}, // two-level, cross leaf
			{32, 8, 0, 1},  // two-level, same leaf
		} {
			eng := sim.NewEngine()
			f := mustNew(t, eng, route.nodes, route.radix, p)
			want := f.MinLatency(route.src, route.dst, size)
			got := measure(t, route.nodes, route.radix, p, route.src, route.dst, size)
			if got != want {
				t.Errorf("nodes=%d size=%v: simulated %v, closed form %v",
					route.nodes, size, got, want)
			}
		}
	}
}

func TestLatencyMonotoneInSize(t *testing.T) {
	p := testParams()
	prev := units.Duration(-1)
	for _, size := range []units.Bytes{0, 64, 512, 2048, 8192, 65536} {
		d := measure(t, 32, 8, p, 0, 31, size)
		if d <= prev {
			t.Fatalf("latency not increasing at size %v: %v <= %v", size, d, prev)
		}
		prev = d
	}
}

func TestPipeliningBeatsStoreAndForward(t *testing.T) {
	p := testParams()
	size := units.Bytes(64 * units.KiB)
	d := measure(t, 32, 8, p, 0, 31, size)
	// Store-and-forward over 4 hops would serialize the full message 4
	// times; cut-through should be well under 2 full serializations plus
	// fixed latency.
	oneSer := p.LinkBandwidth.TimeFor(size)
	if d >= 2*oneSer {
		t.Fatalf("delivery %v suggests no pipelining (full serialization %v)", d, oneSer)
	}
	if d <= oneSer {
		t.Fatalf("delivery %v is faster than one serialization %v", d, oneSer)
	}
}

func TestEjectionContentionSerializes(t *testing.T) {
	p := testParams()
	eng := sim.NewEngine()
	f := mustNew(t, eng, 8, 8, p)
	size := units.Bytes(32 * units.KiB)
	var t1, t2 units.Time
	f.Send(0, 2, size).OnFire(func() { t1 = eng.Now() })
	f.Send(1, 2, size).OnFire(func() { t2 = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	solo := measure(t, 8, 8, p, 0, 2, size)
	later := t2
	if t1 > t2 {
		later = t1
	}
	// Two flows into one ejection link need ~2x the solo serialization.
	if float64(later) < 1.8*float64(solo) {
		t.Fatalf("contended completion %v, solo %v: ejection link not shared", later, solo)
	}
}

// TestContendedSendAllocs pins the allocations of the expanded chunk path:
// eight nodes each send a 64-chunk message into node 0, so every chunk
// takes every hop as an event, queued on the lanes of the servers it
// crosses. Once the message and chunk pools and the lanes are warm, a
// message costs only the completion signal Send returns, whose name is
// rendered only when read. The chunk state, lane entry included, stays in
// the 96-byte allocation class, and the message state, whose path holds
// stage-table indices and no stage and whose continuations sit in place,
// in the 192-byte class.
func TestContendedSendAllocs(t *testing.T) {
	if size := unsafe.Sizeof(chunkState{}); size > 96 {
		t.Fatalf("chunkState is %d bytes, want at most 96", size)
	}
	if size := unsafe.Sizeof(msgState{}); size > 192 {
		t.Fatalf("msgState is %d bytes, want at most 192", size)
	}
	eng := sim.NewEngine()
	f := mustNew(t, eng, 16, 8, hostParams())
	size := 64 * f.Params().MTU
	round := func() {
		for src := 1; src <= 8; src++ {
			f.Send(src, 0, size)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if perMsg := testing.AllocsPerRun(20, round) / 8; perMsg != 1 {
		t.Fatalf("%v allocs per contended message, want 1", perMsg)
	}
}

// TestIdleMessageEventCount pins the chunk model's event cost: with
// coalescing off, an idle n-chunk message over an m-stage path dispatches
// n·(m-1)+2 events — one injection event for all chunks, one arrival per
// chunk at each later stage, and one delivery event for the message. It
// still delivers at the closed-form time.
func TestIdleMessageEventCount(t *testing.T) {
	for _, c := range []struct {
		name   string
		params Params
		stages int
	}{
		{"nohost", testParams(), 2}, // injection, ejection
		{"host", hostParams(), 4},   // host bus, injection, ejection, host bus
	} {
		for _, n := range []int{1, 64} {
			eng := sim.NewEngine()
			f := mustNew(t, eng, 4, 8, c.params)
			f.coalesce = false
			var pt path
			f.fillPath(&pt, 0, 1)
			if int(pt.n) != c.stages {
				t.Fatalf("%s: path has %d stages, want %d", c.name, pt.n, c.stages)
			}
			size := units.Bytes(n) * f.Params().MTU
			done := f.Send(0, 1, size)
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if want := units.Time(f.MinLatency(0, 1, size)); done.FiredAt() != want {
				t.Fatalf("%s/%d chunks: delivered at %v, want %v", c.name, n, done.FiredAt(), want)
			}
			if got, want := eng.Events(), uint64(n*(c.stages-1)+2); got != want {
				t.Errorf("%s/%d chunks: %d events, want %d", c.name, n, got, want)
			}
		}
	}
}

func TestDisjointFlowsDoNotInterfere(t *testing.T) {
	p := testParams()
	eng := sim.NewEngine()
	f := mustNew(t, eng, 8, 8, p)
	size := units.Bytes(32 * units.KiB)
	var t1, t2 units.Time
	f.Send(0, 2, size).OnFire(func() { t1 = eng.Now() })
	f.Send(1, 3, size).OnFire(func() { t2 = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	solo := units.Time(measure(t, 8, 8, p, 0, 2, size))
	if t1 != solo || t2 != solo {
		t.Fatalf("disjoint flows slowed down: %v, %v vs solo %v", t1, t2, solo)
	}
}

func TestAdaptiveRoutingAvoidsSpineCollision(t *testing.T) {
	size := units.Bytes(64 * units.KiB)
	run := func(adaptive bool) units.Time {
		p := testParams()
		p.Adaptive = adaptive
		eng := sim.NewEngine()
		f := mustNew(t, eng, 8, 4, p) // k=2: leaves {0,1},{2,3},{4,5},{6,7}; spines 0,1
		var last units.Time
		// Both destinations have even ids => DestSpine collides on spine 0.
		f.Send(0, 4, size).OnFire(func() { last = eng.Now() })
		f.Send(1, 6, size).OnFire(func() {
			if eng.Now() > last {
				last = eng.Now()
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	det, ada := run(false), run(true)
	if ada >= det {
		t.Fatalf("adaptive (%v) should beat deterministic (%v) under spine collision", ada, det)
	}
}

func TestPacketOverheadSlowsSmallMessages(t *testing.T) {
	base := testParams()
	withOH := base
	withOH.PacketOverhead = 64
	d0 := measure(t, 8, 8, base, 0, 1, 1)
	d1 := measure(t, 8, 8, withOH, 0, 1, 1)
	if d1 <= d0 {
		t.Fatalf("overhead had no effect: %v vs %v", d1, d0)
	}
}

func TestSendToSelfPanics(t *testing.T) {
	eng := sim.NewEngine()
	f := mustNew(t, eng, 8, 8, testParams())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.Send(3, 3, 100)
}

// TestSendThenContinuations: SendThen's two continuations run in order,
// at the instant and with the events of a Send whose signal has two
// OnFire callbacks, on the coalesced path and the chunk model alike. A
// third continuation panics, naming it.
func TestSendThenContinuations(t *testing.T) {
	run := func(coalesce, then bool) (string, uint64, uint64) {
		eng := sim.NewEngine()
		f := mustNew(t, eng, 4, 8, hostParams())
		f.coalesce = coalesce
		var log string
		cb := func(name string) func() {
			return func() { log += fmt.Sprintf("%s@%v ", name, eng.Now()) }
		}
		size := 8 * f.Params().MTU
		if then {
			f.SendThen(0, 1, size, cb("first"), cb("second"))
		} else {
			s := f.Send(0, 1, size)
			s.OnFire(cb("first"))
			s.OnFire(cb("second"))
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return log, eng.Events(), sim.KeyDigest(eng)
	}
	for _, coalesce := range []bool{true, false} {
		sigLog, sigEvents, sigDigest := run(coalesce, false)
		thenLog, thenEvents, thenDigest := run(coalesce, true)
		if !strings.HasPrefix(thenLog, "first@") || !strings.Contains(thenLog, " second@") || thenLog != sigLog {
			t.Errorf("coalesce=%v: continuations ran %q, signal callbacks %q", coalesce, thenLog, sigLog)
		}
		if thenEvents != sigEvents || thenDigest != sigDigest {
			t.Errorf("coalesce=%v: %d events, digest %016x with then; %d, %016x with a signal",
				coalesce, thenEvents, thenDigest, sigEvents, sigDigest)
		}
	}
	f := mustNew(t, sim.NewEngine(), 4, 8, testParams())
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "third continuation") {
			t.Errorf("panic %q, want one naming the third continuation", msg)
		}
	}()
	nop := func() {}
	f.SendThen(0, 1, 100, nop, nop, nop)
}

func TestStats(t *testing.T) {
	eng := sim.NewEngine()
	f := mustNew(t, eng, 8, 8, testParams())
	f.Send(0, 1, 1000)
	f.Send(1, 2, 234)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	msgs, bytes := f.Stats()
	if msgs != 2 || bytes != 1234 {
		t.Fatalf("stats = %d msgs, %d bytes", msgs, bytes)
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{LinkBandwidth: 0, MTU: 2048},
		{LinkBandwidth: units.GBps, MTU: 0},
		{LinkBandwidth: units.GBps, MTU: 2048, WireLatency: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// Property: delivered time always >= closed-form unloaded minimum, for any
// single message on an otherwise idle fabric they are equal.
func TestMinLatencyLowerBoundProperty(t *testing.T) {
	p := testParams()
	f := func(a, b uint8, szRaw uint16) bool {
		src, dst := int(a)%32, int(b)%32
		if src == dst {
			return true
		}
		size := units.Bytes(szRaw)
		eng := sim.NewEngine()
		fab, err := New(eng, 32, 8, p)
		if err != nil {
			return false
		}
		var at units.Time
		fab.Send(src, dst, size).OnFire(func() { at = eng.Now() })
		if err := eng.Run(); err != nil {
			return false
		}
		return units.Duration(at) == fab.MinLatency(src, dst, size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func hostParams() Params {
	p := testParams()
	p.HostBandwidth = 900 * units.MBps
	p.HostLatency = 200 * units.Nanosecond
	return p
}

func TestHostStageCapsBandwidth(t *testing.T) {
	p := hostParams()
	size := units.Bytes(4 * units.MiB)
	d := measure(t, 8, 8, p, 0, 1, size)
	rate := units.RateOver(size, d)
	// Asymptotic rate must be PCI-bound (900 MB/s), not link-bound (1 GB/s).
	if rate.MBpsValue() > 905 || rate.MBpsValue() < 850 {
		t.Fatalf("achieved %v, want ~900MB/s (PCI bound)", rate)
	}
}

func TestHostBusSharedAcrossFlows(t *testing.T) {
	p := hostParams()
	eng := sim.NewEngine()
	f := mustNew(t, eng, 8, 8, p)
	size := units.Bytes(1 * units.MiB)
	var last units.Time
	upd := func() {
		if eng.Now() > last {
			last = eng.Now()
		}
	}
	// Two flows out of node 0's PCI bus to different destinations: the
	// half-duplex host bus is the shared bottleneck.
	f.Send(0, 1, size).OnFire(upd)
	f.Send(0, 2, size).OnFire(upd)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	solo := measure(t, 8, 8, p, 0, 1, size)
	if float64(last) < 1.8*float64(solo) {
		t.Fatalf("shared-bus completion %v vs solo %v: PCI bus not shared", units.Duration(last), solo)
	}
}

func TestHostBusHalfDuplex(t *testing.T) {
	p := hostParams()
	eng := sim.NewEngine()
	f := mustNew(t, eng, 8, 8, p)
	size := units.Bytes(1 * units.MiB)
	var last units.Time
	upd := func() {
		if eng.Now() > last {
			last = eng.Now()
		}
	}
	// Node 1 simultaneously sends and receives: inbound and outbound DMA
	// share the one PCI-X bus.
	f.Send(1, 2, size).OnFire(upd)
	f.Send(0, 1, size).OnFire(upd)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	solo := measure(t, 8, 8, p, 0, 1, size)
	if float64(last) < 1.5*float64(solo) {
		t.Fatalf("bidirectional completion %v vs solo %v: bus should be half duplex", units.Duration(last), solo)
	}
}

func TestHostBusExposed(t *testing.T) {
	eng := sim.NewEngine()
	f := mustNew(t, eng, 8, 8, hostParams())
	if f.HostBus(0) == nil {
		t.Fatal("HostBus nil with host stage enabled")
	}
	f2 := mustNew(t, eng, 8, 8, testParams())
	if f2.HostBus(0) != nil {
		t.Fatal("HostBus should be nil when disabled")
	}
}

// Property: under random traffic every message is delivered exactly once,
// at a time no earlier than its unloaded minimum.
func TestMessageConservationProperty(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw)%40 + 2
		p := hostParams()
		p.Adaptive = seed%2 == 0
		eng := sim.NewEngine()
		fab, err := New(eng, 16, 8, p)
		if err != nil {
			return false
		}
		state := uint64(seed) + 1
		next := func(mod int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int(state>>33) % mod
		}
		delivered := 0
		type rec struct {
			src, dst int
			size     units.Bytes
			sent     units.Time
		}
		var msgs []rec
		for i := 0; i < n; i++ {
			src := next(16)
			dst := next(16)
			if dst == src {
				dst = (dst + 1) % 16
			}
			size := units.Bytes(next(100000))
			at := units.Time(units.Duration(next(1000)) * units.Microsecond)
			m := rec{src, dst, size, at}
			msgs = append(msgs, m)
			eng.At(at, func() {
				fab.Send(m.src, m.dst, m.size).OnFire(func() {
					delivered++
					// The unloaded-minimum lower bound only holds for
					// deterministic routing: adaptive fabrics stripe a
					// message's chunks across spines and can legitimately
					// beat the single-path pipeline.
					if !p.Adaptive {
						if floor := fab.MinLatency(m.src, m.dst, m.size); eng.Now().Sub(m.sent) < floor {
							t.Errorf("delivery faster than unloaded minimum")
						}
					}
				})
			})
		}
		if err := eng.Run(); err != nil {
			return false
		}
		return delivered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
