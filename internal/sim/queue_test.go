package sim

import (
	"container/heap"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

// refHeap is the pre-overhaul container/heap event queue, kept here as
// the reference implementation for the differential test below.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = event{}
	*h = old[:n-1]
	return ev
}

// TestEventQueueMatchesReferenceHeap drives the monomorphic 4-ary queue
// and a container/heap reference through one million random operations
// (pure inserts, pure pops, and mixed phases, including heavy timestamp
// ties) and asserts every pop returns the identical (at, seq) pair.
// Since (at, seq) keys are unique, both structures must emit the unique
// sorted order of whatever is queued; this test pins that equivalence
// against implementation bugs in the sift routines.
func TestEventQueueMatchesReferenceHeap(t *testing.T) {
	r := rng.New(0x51eede7e)
	var q eventQueue
	var ref refHeap
	var seq uint64
	const ops = 1_000_000

	push := func() {
		seq++
		// Small timestamp range forces many at-ties so the seq
		// tiebreak is exercised constantly.
		ev := event{at: units.Time(r.Intn(512)), seq: seq}
		q.push(ev)
		heap.Push(&ref, ev)
	}
	pop := func() {
		if len(ref) == 0 {
			return
		}
		got := q.pop()
		want := heap.Pop(&ref).(event)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("dequeue order diverged: got (%d,%d) want (%d,%d) with %d queued",
				got.at, got.seq, want.at, want.seq, len(ref)+1)
		}
	}

	for i := 0; i < ops; i++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3: // insert-biased
			push()
		case 4, 5, 6:
			pop()
		case 7: // burst insert
			for k := 0; k < 32; k++ {
				push()
			}
		case 8: // burst pop
			for k := 0; k < 32; k++ {
				pop()
			}
		default: // churn at equal size
			push()
			pop()
		}
		if q.len() != len(ref) {
			t.Fatalf("length diverged: %d vs %d", q.len(), len(ref))
		}
	}
	for len(ref) > 0 {
		pop()
	}
	if q.len() != 0 {
		t.Fatalf("queue not drained: %d left", q.len())
	}
}

// TestEventLessFullRange pins the branch-free compare over the whole key
// range the kernel can produce: at from 0 to Forever, and seqs with bit 63
// set. eventLess must agree with the plain two-branch definition on every
// pair, and the queue must pop any shuffle of those keys in sorted order.
// The random test above never leaves small keys, so a compare that
// ignored the high bits of either word would pass it.
func TestEventLessFullRange(t *testing.T) {
	ats := []units.Time{0, 1, 1 << 32, 1 << 62, units.Forever - 1, units.Forever}
	seqs := []uint64{0, 1, 1 << 32, 1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64}
	var keys []event
	for _, at := range ats {
		for _, seq := range seqs {
			keys = append(keys, event{at: at, seq: seq})
		}
	}
	for _, a := range keys {
		for _, b := range keys {
			// refHeap.Less is the plain two-branch definition.
			if got, want := eventLess(a, b), (refHeap{a, b}).Less(0, 1); got != want {
				t.Errorf("eventLess((%d,%#x), (%d,%#x)) = %v, want %v", a.at, a.seq, b.at, b.seq, got, want)
			}
		}
	}

	// keys is sorted by construction.
	r := rng.New(0xf0117a6e)
	var q eventQueue
	for round := 0; round < 200; round++ {
		shuffled := append([]event(nil), keys...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		for _, ev := range shuffled {
			q.push(ev)
		}
		for i, want := range keys {
			if got := q.pop(); got.at != want.at || got.seq != want.seq {
				t.Fatalf("round %d pop %d: got (%d,%#x), want (%d,%#x)", round, i, got.at, got.seq, want.at, want.seq)
			}
		}
	}
}

// TestScheduleDoesNotAllocate guards the zero-alloc contract of the
// schedule path: once the heap's backing slice has grown to capacity,
// At/After plus the dispatch loop allocate nothing. This is what lets a
// multi-million-event simulation run without GC pressure from the
// kernel itself.
func TestScheduleDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm up: grow the backing slice past anything the measured loop
	// needs, then drain.
	for i := 0; i < 2048; i++ {
		e.At(units.Time(i), fn)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(200, func() {
		base := e.Now()
		for i := 0; i < 1024; i++ {
			e.At(base+units.Time(i%64), fn)
		}
		if err := e.RunUntil(base + 1024); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule path allocates: %v allocs per run, want 0", allocs)
	}

	// Same-instant events: a burst of After(0) events plus a chain in
	// which each reschedules itself at the same instant.
	chain := 0
	var link func()
	link = func() {
		if chain++; chain%256 != 0 {
			e.After(0, link)
		}
	}
	sameInstant := func() {
		for i := 0; i < 512; i++ {
			e.After(0, fn)
		}
		e.After(0, link)
		if err := e.RunUntil(e.Now()); err != nil {
			t.Fatal(err)
		}
	}
	sameInstant() // grow the heap
	if allocs := testing.AllocsPerRun(200, sameInstant); allocs != 0 {
		t.Fatalf("same-instant schedule path allocates: %v allocs per run, want 0", allocs)
	}
	if chain == 0 || chain%256 != 0 {
		t.Fatalf("chain dispatched %d events, want whole chains of 256", chain)
	}
}

// TestLaneDoesNotAllocate pins a warmed Lane.At loop at zero allocations:
// entries live in the caller's state, and the lane's heap stand-in is
// bound once.
func TestLaneDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	s := e.NewServer()
	entries := make([]LaneEntry, 64)
	fn := func() {}
	round := func() {
		base := e.Now()
		for i := range entries {
			// Pairs of equal times: ties queue on the lane too.
			s.Lane().At(base+units.Time(1+i/2), &entries[i], fn)
		}
		if err := e.RunUntil(base + 64); err != nil {
			t.Fatal(err)
		}
	}
	round() // builds the lane
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("Lane.At allocates: %v allocs per run, want 0", allocs)
	}
	if e.events.len() != 0 || s.lane.head != nil {
		t.Fatal("lane events left pending")
	}
}

// TestEventSliceReusedAcrossRuns checks that repeated Run/RunUntil sweeps
// on one engine, After(0) events included, reuse the heap's backing slice
// instead of growing a fresh one each time.
func TestEventSliceReusedAcrossRuns(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	sweep := func() {
		base := e.Now()
		for i := 0; i < 1024; i++ {
			e.At(base+units.Time(i), fn)
			if i%8 == 0 {
				e.After(0, fn) // a same-instant event
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	sweep()
	capAfterWarm := cap(e.events.ev)
	for round := 0; round < 8; round++ {
		sweep()
	}
	if cap(e.events.ev) != capAfterWarm {
		t.Fatalf("backing slice regrew: cap %d -> %d", capAfterWarm, cap(e.events.ev))
	}
	// Popped slots must be cleared so dispatched closures are
	// collectable: the heap is empty, so every retained slot within
	// capacity must be zero.
	spare := e.events.ev[:cap(e.events.ev)]
	for i, ev := range spare {
		if ev.fn != nil || ev.at != 0 || ev.seq != 0 {
			t.Fatalf("popped slot %d not cleared: %+v", i, ev)
		}
	}
}

// BenchmarkEventQueue measures the kernel's schedule-plus-dispatch cost in
// five shapes. "burst" queues 512 heap events per op and drains them. The
// others report per event with a fixed number pending: "shallow" keeps 64
// in the heap, about the mean heap length of the beff workload (56; halo's
// is about 20); "now" keeps the same 64, but every one dispatched also
// schedules an After(0) event, so half the events run at the instant they
// were scheduled, as process wakes and handoffs do; "deep" keeps 1,600,
// the halo workload's queue depth before lanes took chunk hops out of the
// heap; "lane" feeds 1,600 through 64 server lanes in FIFO order the way
// the fabric's chunk hops are.
func BenchmarkEventQueue(b *testing.B) {
	b.Run("burst", func(b *testing.B) {
		e := NewEngine()
		fn := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base := e.Now()
			for k := 0; k < 512; k++ {
				e.At(base+units.Time(k%97), fn)
			}
			if err := e.RunUntil(base + 512); err != nil {
				b.Fatal(err)
			}
		}
	})
	// churn keeps depth events in the heap: each one dispatched schedules
	// its successor a random 1–1000 ps later.
	churn := func(b *testing.B, depth int) {
		e := NewEngine()
		r := rng.New(1)
		left := b.N
		var fn func()
		fn = func() {
			if left > 0 {
				left--
				e.After(Duration(1+r.Intn(1000)), fn)
			}
		}
		for i := 0; i < depth; i++ {
			e.After(Duration(1+r.Intn(1000)), fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	const depth = 1600
	b.Run("shallow", func(b *testing.B) { churn(b, 64) })
	b.Run("now", func(b *testing.B) {
		e := NewEngine()
		r := rng.New(1)
		left := b.N
		same := func() {}
		var fn func()
		fn = func() {
			if left > 0 {
				left--
				e.After(Duration(1+r.Intn(1000)), fn)
			}
			if left > 0 {
				left--
				e.After(0, same)
			}
		}
		for i := 0; i < 64; i++ {
			e.After(Duration(1+r.Intn(1000)), fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("deep", func(b *testing.B) { churn(b, depth) })
	b.Run("lane", func(b *testing.B) {
		e := NewEngine()
		r := rng.New(1)
		lanes := make([]*Lane, 64)
		horizon := make([]Time, len(lanes))
		for i := range lanes {
			lanes[i] = e.newLane()
		}
		type chunk struct {
			entry LaneEntry
			fn    func()
		}
		left := b.N
		hop := func(c *chunk) {
			l := r.Intn(len(lanes))
			t := horizon[l]
			if t < e.Now() {
				t = e.Now()
			}
			horizon[l] = t + Time(1+r.Intn(40))
			lanes[l].At(horizon[l], &c.entry, c.fn)
		}
		for i := 0; i < depth; i++ {
			c := &chunk{}
			c.fn = func() {
				if left > 0 {
					left--
					hop(c)
				}
			}
			hop(c)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
}
