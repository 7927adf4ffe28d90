package host

import (
	"math"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

func params2() Params {
	return Params{CPUs: 2, MemContention: 0.3, CacheBytes: units.Bytes(1536 * units.KiB)}
}

func mustNode(t *testing.T, eng *sim.Engine, p Params) *Node {
	t.Helper()
	n, err := NewNode(eng, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestComputeAloneRunsAtFullRate(t *testing.T) {
	eng := sim.NewEngine()
	n := mustNode(t, eng, params2())
	var done units.Time
	eng.Spawn("r0", func(p *sim.Proc) {
		n.Compute(p, 0, 10*units.Microsecond, 1.0)
		done = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done != units.Time(10*units.Microsecond) {
		t.Fatalf("alone compute took %v, want 10us", done)
	}
}

func TestFullOverlapContention(t *testing.T) {
	eng := sim.NewEngine()
	n := mustNode(t, eng, params2())
	var d0, d1 units.Time
	eng.Spawn("r0", func(p *sim.Proc) {
		n.Compute(p, 0, 10*units.Microsecond, 1.0)
		d0 = p.Now()
	})
	eng.Spawn("r1", func(p *sim.Proc) {
		n.Compute(p, 1, 10*units.Microsecond, 1.0)
		d1 = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Both fully overlapped: each runs at 1/1.3 rate => 13us.
	want := units.Time(13 * units.Microsecond)
	tol := units.Time(10 * units.Nanosecond)
	for _, d := range []units.Time{d0, d1} {
		if d < want-tol || d > want+tol {
			t.Fatalf("contended compute took %v, want ~%v", d, want)
		}
	}
}

func TestZeroIntensityIgnoresContention(t *testing.T) {
	eng := sim.NewEngine()
	n := mustNode(t, eng, params2())
	var d0 units.Time
	eng.Spawn("r0", func(p *sim.Proc) {
		n.Compute(p, 0, 10*units.Microsecond, 0)
		d0 = p.Now()
	})
	eng.Spawn("r1", func(p *sim.Proc) {
		n.Compute(p, 1, 10*units.Microsecond, 0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d0 != units.Time(10*units.Microsecond) {
		t.Fatalf("cache-resident compute took %v, want 10us", d0)
	}
}

func TestPartialOverlapChargedExactly(t *testing.T) {
	eng := sim.NewEngine()
	n := mustNode(t, eng, params2())
	var d0 units.Time
	// r0 computes 20us of work; r1 joins at t=10us with a long job.
	eng.Spawn("r0", func(p *sim.Proc) {
		n.Compute(p, 0, 20*units.Microsecond, 1.0)
		d0 = p.Now()
	})
	eng.Spawn("r1", func(p *sim.Proc) {
		p.Sleep(10 * units.Microsecond)
		n.Compute(p, 1, 100*units.Microsecond, 1.0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// r0: 10us alone (10us of work done) + remaining 10us of work at 1.3x
	// stretch = 13us more. Total 23us.
	want := 23 * units.Microsecond
	got := units.Duration(d0)
	if math.Abs(got.Seconds()-want.Seconds()) > 20e-9 {
		t.Fatalf("partial overlap: r0 finished at %v, want ~%v", got, want)
	}
}

func TestOverheadDebtConsumedByNextCompute(t *testing.T) {
	eng := sim.NewEngine()
	n := mustNode(t, eng, params2())
	n.AddOverhead(0, 5*units.Microsecond)
	if n.PendingOverhead(0) != 5*units.Microsecond {
		t.Fatal("debt not recorded")
	}
	var d units.Time
	eng.Spawn("r0", func(p *sim.Proc) {
		n.Compute(p, 0, 10*units.Microsecond, 0)
		d = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d != units.Time(15*units.Microsecond) {
		t.Fatalf("compute with debt took %v, want 15us", d)
	}
	if n.PendingOverhead(0) != 0 {
		t.Fatal("debt not cleared")
	}
}

func TestComputeTotalAccounting(t *testing.T) {
	eng := sim.NewEngine()
	n := mustNode(t, eng, params2())
	eng.Spawn("r0", func(p *sim.Proc) {
		n.Compute(p, 0, 4*units.Microsecond, 0)
		p.Sleep(10 * units.Microsecond)
		n.Compute(p, 0, 6*units.Microsecond, 0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.ComputeTotal(0); got != 10*units.Microsecond {
		t.Fatalf("ComputeTotal = %v, want 10us", got)
	}
}

func TestZeroWorkIsInstant(t *testing.T) {
	eng := sim.NewEngine()
	n := mustNode(t, eng, params2())
	var d units.Time
	eng.Spawn("r0", func(p *sim.Proc) {
		n.Compute(p, 0, 0, 1.0)
		d = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("zero work took %v", d)
	}
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewNode(eng, 0, Params{CPUs: 0}); err == nil {
		t.Fatal("0 CPUs should error")
	}
	if _, err := NewNode(eng, 0, Params{CPUs: 1, MemContention: -1}); err == nil {
		t.Fatal("negative contention should error")
	}
}

func TestBadSlotPanics(t *testing.T) {
	eng := sim.NewEngine()
	n := mustNode(t, eng, params2())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	n.AddOverhead(2, units.Microsecond)
}

func TestCluster(t *testing.T) {
	eng := sim.NewEngine()
	c, err := NewCluster(eng, 4, params2())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 4 {
		t.Fatalf("%d nodes", len(c.Nodes))
	}
	for i, n := range c.Nodes {
		if n.ID() != i {
			t.Fatalf("node %d has id %d", i, n.ID())
		}
	}
}

// Three-way contention on a 4-CPU node: rate divisor 1 + 0.3*2 = 1.6.
func TestMultiWayContention(t *testing.T) {
	eng := sim.NewEngine()
	p := Params{CPUs: 4, MemContention: 0.3}
	n := mustNode(t, eng, p)
	finish := make([]units.Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		eng.Spawn("r", func(pr *sim.Proc) {
			n.Compute(pr, i, 10*units.Microsecond, 1.0)
			finish[i] = pr.Now()
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := 16 * units.Microsecond
	for i, f := range finish {
		if math.Abs(units.Duration(f).Seconds()-want.Seconds()) > 30e-9 {
			t.Fatalf("rank %d finished at %v, want ~%v", i, f, want)
		}
	}
}

func TestNoiseStealsExpectedFraction(t *testing.T) {
	eng := sim.NewEngine()
	p := params2()
	p.NoiseFraction = 0.05
	p.NoiseBurst = 50 * units.Microsecond
	p.NoiseSeed = 7
	n := mustNode(t, eng, p)
	const work = 500 * units.Millisecond
	var elapsed units.Duration
	eng.Spawn("r0", func(pr *sim.Proc) {
		start := pr.Now()
		n.Compute(pr, 0, work, 0)
		elapsed = pr.Now().Sub(start)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	overhead := float64(elapsed-work) / float64(work)
	if overhead < 0.02 || overhead > 0.10 {
		t.Fatalf("noise overhead %.3f, want ~0.05", overhead)
	}
}

func TestNoiseDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) units.Duration {
		eng := sim.NewEngine()
		p := params2()
		p.NoiseFraction = 0.03
		p.NoiseBurst = 20 * units.Microsecond
		p.NoiseSeed = seed
		n := mustNode(t, eng, p)
		var elapsed units.Duration
		eng.Spawn("r0", func(pr *sim.Proc) {
			n.Compute(pr, 0, 50*units.Millisecond, 0)
			elapsed = units.Duration(pr.Now())
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	if run(1) != run(1) {
		t.Fatal("same seed should reproduce exactly")
	}
	if run(1) == run(2) {
		t.Fatal("different seeds should differ")
	}
}

func TestNoiseValidation(t *testing.T) {
	eng := sim.NewEngine()
	p := params2()
	p.NoiseFraction = 1.5
	if _, err := NewNode(eng, 0, p); err == nil {
		t.Fatal("fraction >= 1 should error")
	}
	p.NoiseFraction = 0.1
	p.NoiseBurst = 0
	if _, err := NewNode(eng, 0, p); err == nil {
		t.Fatal("zero burst with noise should error")
	}
}

// TestTimerReusedAtItsDeadline covers a pooled compute timer taken again
// before the process it woke has resumed: r1 starts computing at the very
// instant r0's timer fires, so r1's first segment reuses that timer. r0
// must still end at its deadline and r1 must run its 10us alone after r0
// leaves.
func TestTimerReusedAtItsDeadline(t *testing.T) {
	eng := sim.NewEngine()
	n := mustNode(t, eng, params2())
	var d0, d1 units.Time
	eng.Spawn("r0", func(p *sim.Proc) {
		n.Compute(p, 0, 10*units.Microsecond, 1.0)
		d0 = p.Now()
	})
	eng.Spawn("r1", func(p *sim.Proc) {
		p.Sleep(10 * units.Microsecond)
		n.Compute(p, 1, 10*units.Microsecond, 1.0)
		d1 = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d0 != units.Time(10*units.Microsecond) || d1 != units.Time(20*units.Microsecond) {
		t.Fatalf("r0 ended at %v, r1 at %v; want 10us and 20us", d0, d1)
	}
}

// computeMallocs reports the heap objects allocated by calls back-to-back
// Compute calls on each of slots processes, one per slot, on a fresh node:
// the least of three runs, since the runtime's own background allocations
// only ever add to it.
func computeMallocs(t *testing.T, slots, calls int) uint64 {
	least := ^uint64(0)
	for run := 0; run < 3; run++ {
		eng := sim.NewEngine()
		n := mustNode(t, eng, params2())
		for slot := 0; slot < slots; slot++ {
			eng.Spawn("r"+strconv.Itoa(slot), func(p *sim.Proc) {
				for i := 0; i < calls; i++ {
					n.Compute(p, slot, units.Duration(slot+1)*units.Microsecond, 0.5)
				}
			})
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		least = min(least, m1.Mallocs-m0.Mallocs)
	}
	return least
}

// pinComputeAllocs checks the steady-state heap objects per Compute call
// with slots processes computing at once: the difference between a 1,000-
// and a 3,000-call run, per extra call.
func pinComputeAllocs(t *testing.T, slots int) {
	perCall := float64(computeMallocs(t, slots, 3000)-computeMallocs(t, slots, 1000)) / float64(2000*slots)
	if perCall > 0.01 {
		t.Fatalf("%.4f allocations per Compute call, want 0", perCall)
	}
	t.Logf("%.4f allocations per Compute call", perCall)
}

// TestComputeAllocs pins a steady-state Compute call of a lone process at
// 0 allocations: the timer comes from the node's pool, and the membership
// changes fire the node's reusable wake-up, which nobody waits on here.
func TestComputeAllocs(t *testing.T) {
	pinComputeAllocs(t, 1)
}

// TestConcurrentComputeAllocs pins Compute at 0 allocations while both
// slots compute at once, phases of different lengths, so every
// membership change wakes the other slot's process and ends its segment.
func TestConcurrentComputeAllocs(t *testing.T) {
	pinComputeAllocs(t, 2)
}

// BenchmarkMembershipChange times membership changes with one waiter:
// slot 0 runs back-to-back 10 us phases, and slot 1 back-to-back 1 us
// phases, so each change wakes the other slot's process, which starts a
// new segment. One op is one simulated microsecond: slot 1's two changes
// and the wakes and segments they cause, plus a tenth of slot 0's. The
// warm-up fills the node's timer pool, so a change that allocates shows
// in allocs/op.
func BenchmarkMembershipChange(b *testing.B) {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	n, err := NewNode(eng, 0, params2())
	if err != nil {
		b.Fatal(err)
	}
	eng.Spawn("waiter", func(p *sim.Proc) {
		for {
			n.Compute(p, 0, 10*units.Microsecond, 1.0)
		}
	})
	eng.Spawn("changer", func(p *sim.Proc) {
		for {
			n.Compute(p, 1, units.Microsecond, 0)
		}
	})
	if err := eng.RunUntil(units.Time(units.Millisecond)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.RunUntil(eng.Now().Add(units.Duration(b.N) * units.Microsecond)); err != nil {
		b.Fatal(err)
	}
}
