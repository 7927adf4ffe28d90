package sim

import (
	"container/heap"
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

// refModel drives an engine with a seeded random mix of scheduling calls
// and mirrors each call into a container/heap reference keyed (at, id),
// where id counts scheduling calls in issue order. The engine spends one
// seq per call in the same order, so (at, id) is the event's kernel key,
// and every dispatch must pop the reference minimum.
type refModel struct {
	t       *testing.T
	e       *Engine
	r       *rng.Source
	ref     refHeap
	id      uint64
	fired   int
	left    int  // scheduling budget
	stopped bool // Stop was called since the test last looked
	// chain mirrors the kernel's resume chain, root first. Its top is the
	// running process or, once it has parked, the process whose stack
	// runs the dispatch loop; with the chain empty the scheduler's does.
	chain  []*Proc
	parked bool
	// kdepth is how many processes of chain the kernel had on its own
	// resume chain at the last dispatch.
	kdepth int

	lanes     []*Lane
	laneLast  []units.Time // last time pushed per lane (not its live tail)
	laneFired []int

	cov coverage
}

// coverage counts the paths the differential test exists to exercise.
type coverage struct {
	appended      int // Lane.At queued on the lane
	fellBack      int // Lane.At earlier than the lane's tail
	behindSeries  int // Lane.At fell back: inside a queued series' span
	seriesQueued  int // Lane.Series queued its events on the lane
	seriesRefused int // Lane.Series refused; the events went one by one
	laneStops     int // Stop with lane entries pending
	laneDeadlines int // RunUntil returned between two entries of one lane
	sharedWakes   int // one callback woke several processes at one instant
	procStops     int // Stop called by a process
	// How the dispatch loop on a parked process's stack ended.
	selfResumes   int // it reached the process's own wake: no switch
	handoffs      int // it reached another process's wake
	directResumes int // ... off the chain: resumed from the loop's stack
	unwinds       int // ... an ancestor's: the chain unwound to it
	loopEnds      int // the run ended (deadline, Stop or drain)
	deepUnwinds   int // an unwind (to an ancestor or at run end) of depth ≥ 2
	exits         int // a process finished, and its resumer kept dispatching
}

// expect records a scheduling call whose event will run at at (already
// clamped to now) and returns its key.
func (m *refModel) expect(at units.Time) event {
	m.id++
	ev := event{at: at, seq: m.id}
	heap.Push(&m.ref, ev)
	return ev
}

// check asserts that the event with key k is the one dispatching now.
func (m *refModel) check(k event) {
	m.t.Helper()
	if len(m.ref) == 0 {
		m.t.Fatalf("dispatched (%d,%d) with nothing pending in the reference", k.at, k.seq)
	}
	if m.stopped {
		m.t.Fatalf("dispatched (%d,%d) after Stop", k.at, k.seq)
	}
	if want := m.host(); m.e.host != want {
		m.t.Fatalf("dispatch %d ran on %s's stack, want %s's", m.fired, stackName(m.e.host), stackName(want))
	}
	m.kdepth = 0
	for _, p := range m.chain {
		if p.inChain {
			m.kdepth++
		}
	}
	want := heap.Pop(&m.ref).(event)
	if want.at != k.at || want.seq != k.seq || m.e.Now() != k.at {
		m.t.Fatalf("dispatch %d: got (%d,%d) at clock %d, want (%d,%d)",
			m.fired, k.at, k.seq, m.e.Now(), want.at, want.seq)
	}
	m.fired++
}

// host returns the process whose stack the model says runs the dispatch
// loop: the top of the chain once it has parked, else nil (the
// scheduler's stack, or a process running its own code).
func (m *refModel) host() *Proc {
	if !m.parked || len(m.chain) == 0 {
		return nil
	}
	return m.chain[len(m.chain)-1]
}

func stackName(p *Proc) string {
	if p == nil {
		return "the scheduler (or no one)"
	}
	return fmt.Sprintf("process %d", p.id)
}

// park runs block, which must park p, the top of the chain: the dispatch
// loop runs on p's stack until a process resumes.
func (m *refModel) park(p *Proc, block func()) {
	m.parked = true
	block()
	m.resume(p)
}

// resume records how p came to run. On the chain's top, its own stack's
// loop reached its wake (no switch). Below the top, the chain unwound to
// it. Off the chain, the top's loop resumed it directly, or, with the
// chain empty, the scheduler did. The direct-resume and deep-unwind
// counters only count what the kernel's own chain shows: the resumer
// still on it, and the levels it held at the last dispatch.
func (m *refModel) resume(p *Proc) {
	i := slices.Index(m.chain, p)
	top := len(m.chain) - 1
	switch {
	case i < 0:
		if top >= 0 {
			m.cov.handoffs++
			if m.chain[top].inChain {
				m.cov.directResumes++
			}
		}
		m.chain = append(m.chain, p)
	case i == top:
		m.cov.selfResumes++
	default:
		m.cov.handoffs++
		m.cov.unwinds++
		if m.kdepth-(i+1) >= 2 {
			m.cov.deepUnwinds++
		}
		m.chain = m.chain[:i+1]
	}
	m.parked = false
}

// exit records that p, the top of the chain, finished: its resumer keeps
// dispatching on its own stack.
func (m *refModel) exit(p *Proc) {
	if top := len(m.chain) - 1; top < 0 || m.chain[top] != p {
		m.t.Fatalf("process %d finished off the top of the chain", p.id)
	}
	m.chain = m.chain[:len(m.chain)-1]
	m.parked = true
	m.cov.exits++
}

// runEnded records that RunUntil returned: the chain unwound to the
// scheduler.
func (m *refModel) runEnded() {
	if len(m.chain) > 0 {
		m.cov.loopEnds++
	}
	if m.kdepth >= 2 {
		m.cov.deepUnwinds++
	}
	m.chain, m.parked = m.chain[:0], false
}

// waiters spawns processes that wait on one signal, which a callback
// fires at or after now: their wakes share the fire's instant.
func (m *refModel) waiters(now units.Time) {
	e := m.e
	s := e.NewSignal("s")
	n := 1 + m.r.Intn(3)
	wakes := make([]event, n)
	var waiting []int
	for i := 0; i < n; i++ {
		spawn := m.expect(now)
		e.Spawn("w", func(p *Proc) {
			m.resume(p)
			m.check(spawn)
			waiting = append(waiting, i)
			m.park(p, func() { p.Wait(s) })
			m.check(wakes[i])
			m.act()
			m.exit(p)
		})
	}
	var cb event
	withCallback := m.r.Intn(2) == 0
	if withCallback {
		s.OnFire(m.callback(&cb, -1))
	}
	fire := m.expect(now + units.Time(m.r.Intn(20)))
	e.At(fire.at, func() {
		m.check(fire)
		// Fire wakes the waiters in the order they registered, then
		// schedules the callback: one seq each.
		for _, i := range waiting {
			wakes[i] = m.expect(fire.at)
		}
		if withCallback {
			cb = m.expect(fire.at)
		}
		if len(waiting) > 1 {
			m.cov.sharedWakes++
		}
		s.Fire()
		m.act()
	})
}

// callback returns an event body that checks its key, counts a dispatch
// for lane li (-1 for none), and issues a few more scheduling calls.
func (m *refModel) callback(k *event, li int) func() {
	return func() {
		m.check(*k)
		if li >= 0 {
			m.laneFired[li]++
		}
		for n := m.r.Intn(3); n > 0; n-- {
			m.act()
		}
	}
}

func (m *refModel) act() {
	if m.left <= 0 {
		return
	}
	m.left--
	e := m.e
	now := e.Now()
	k := new(event)
	switch op := m.r.Intn(24); {
	case op < 4: // At in the future
		t := now + units.Time(1+m.r.Intn(40))
		*k = m.expect(t)
		e.At(t, m.callback(k, -1))
	case op < 6: // At now
		*k = m.expect(now)
		e.At(now, m.callback(k, -1))
	case op < 7: // At in the past, clamped to now
		*k = m.expect(now)
		e.At(now-units.Time(1+m.r.Intn(20)), m.callback(k, -1))
	case op < 9: // After(0)
		*k = m.expect(now)
		e.After(0, m.callback(k, -1))
	case op < 16: // Lane.At: mostly in order (ties included), some earlier
		li := m.r.Intn(len(m.lanes))
		l := m.lanes[li]
		t := m.laneLast[li]
		if t < now {
			t = now
		}
		if m.r.Intn(4) == 0 {
			t -= units.Time(1 + m.r.Intn(30))
		} else {
			t += units.Time(m.r.Intn(25))
		}
		m.laneLast[li] = t
		if l.tail != nil && t < l.tailAt {
			m.cov.fellBack++
			if l.tail.series != nil && t >= l.tail.at {
				m.cov.behindSeries++
			}
		} else if t > now {
			m.cov.appended++
		}
		at := t
		if at < now {
			at = now
		}
		*k = m.expect(at)
		l.At(t, new(LaneEntry), m.callback(k, li))
	case op < 18: // Lane.Series: a train of events with ties and gaps
		m.series(now)
	case op < 20: // a process that sleeps and yields
		spawn := m.expect(now)
		steps := 1 + m.r.Intn(4)
		e.Spawn("p", func(p *Proc) {
			m.resume(p)
			m.check(spawn)
			for i := 0; i < steps; i++ {
				if m.r.Intn(2) == 0 {
					d := units.Duration(1 + m.r.Intn(30))
					wake := m.expect(p.Now().Add(d))
					m.park(p, func() { p.Sleep(d) })
					m.check(wake)
				} else {
					wake := m.expect(p.Now())
					m.park(p, func() { p.Yield() })
					m.check(wake)
				}
				if m.r.Intn(8) == 0 {
					m.cov.procStops++
					m.stopped = true
					e.Stop()
				}
				m.act()
			}
			m.exit(p)
		})
	case op < 22: // processes waiting on a signal a callback fires
		m.waiters(now)
	case op < 23: // Stop after the current event
		for _, l := range m.lanes {
			if l.head != nil {
				m.cov.laneStops++
				break
			}
		}
		m.stopped = true
		e.Stop()
	default: // schedule nothing this time
		m.left++
	}
}

// series issues n events on one lane through Lane.Series, or, when the
// lane refuses them, through one Lane.At call each, which is what a caller
// falls back to. Either way the events must dispatch under the keys the
// reference gives n scheduling calls issued back to back.
func (m *refModel) series(now units.Time) {
	li := m.r.Intn(len(m.lanes))
	l := m.lanes[li]
	n := 2 + m.r.Intn(8)
	times := make([]units.Time, n)
	t := m.laneLast[li]
	if t < now {
		t = now
	}
	if m.r.Intn(4) == 0 {
		t -= units.Time(1 + m.r.Intn(30))
	} else {
		t += units.Time(m.r.Intn(25))
	}
	for k := range times {
		if t < now {
			t = now // the refused case clamps like Engine.At
		}
		times[k] = t
		t += units.Time(m.r.Intn(3) * m.r.Intn(12)) // ties are common
	}
	m.laneLast[li] = times[n-1]
	keys := make([]event, n)
	for k := range keys {
		keys[k] = m.expect(times[k])
	}
	k := 0
	fire := func() (units.Time, bool) {
		m.callback(&keys[k], li)()
		k++
		if k == n {
			return 0, false
		}
		return times[k], true
	}
	if l.Series(times[0], times[n-1], n, new(LaneEntry), fire) {
		m.cov.seriesQueued++
		return
	}
	m.cov.seriesRefused++
	for k := range keys {
		l.At(times[k], new(LaneEntry), m.callback(&keys[k], li))
	}
}

// TestEngineMatchesReferenceOrder is the kernel's differential test: a
// random mix of At (future, now, past), After(0), process sleeps and
// yields, processes waiting on signals that callbacks fire (several woken
// at one instant), in-order and out-of-order Lane.At calls, and
// Lane.Series trains (queued, or refused and issued one by one), run in
// RunUntil rounds whose deadlines fall inside lanes and interrupted by
// Stop from callbacks and from processes, must dispatch exactly the
// sorted (at, seq) order of everything scheduled. The model also mirrors
// the resume chain, and every dispatch checks that it runs on the stack
// of the process the model names (the chain's top once it has parked),
// or on the scheduler's when the chain is empty. The mix must end a
// process's dispatch loop in each of its ways (own wake, direct resume,
// unwind to an ancestor, run end), unwind two levels or more, and finish
// a process whose resumer keeps dispatching.
func TestEngineMatchesReferenceOrder(t *testing.T) {
	var cov coverage
	for seed := uint64(1); seed <= 8; seed++ {
		e := NewEngine()
		m := &refModel{t: t, e: e, r: rng.New(0x1a9e0000 + seed), left: 20_000}
		for i := 0; i < 4; i++ {
			m.lanes = append(m.lanes, e.newLane())
		}
		m.laneLast = make([]units.Time, len(m.lanes))
		m.laneFired = make([]int, len(m.lanes))
		for i := 0; i < 16; i++ {
			m.act()
		}
		for rounds := 0; len(m.ref) > 0; rounds++ {
			if rounds > 1_000_000 {
				t.Fatalf("seed %d: run did not drain", seed)
			}
			if m.r.Intn(8) == 0 {
				m.act() // schedule from outside a run, too
			}
			now := e.Now()
			deadline := now + units.Time(m.r.Intn(60))
			switch m.r.Intn(8) {
			case 0:
				deadline = units.Forever
			case 1:
				deadline = now - units.Time(m.r.Intn(3)) // past or now
			}
			before := append([]int(nil), m.laneFired...)
			if err := e.RunUntil(deadline); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			m.runEnded()
			if m.stopped {
				m.stopped = false
				continue // a Stop may leave due events for the next round
			}
			if len(m.ref) > 0 && m.ref[0].at <= deadline {
				t.Fatalf("seed %d: RunUntil(%d) returned with (%d,%d) due",
					seed, deadline, m.ref[0].at, m.ref[0].seq)
			}
			if deadline == units.Forever || deadline <= now {
				continue
			}
			if e.Now() != deadline {
				t.Fatalf("seed %d: clock %d after RunUntil(%d)", seed, e.Now(), deadline)
			}
			for i, l := range m.lanes {
				if l.head != nil && m.laneFired[i] > before[i] {
					m.cov.laneDeadlines++
				}
			}
		}
		if err := e.Run(); err != nil {
			t.Fatalf("seed %d: final drain: %v", seed, err)
		}
		m.runEnded()
		for i, l := range m.lanes {
			if l.head != nil || l.tail != nil {
				t.Fatalf("seed %d: lane %d not empty after drain", seed, i)
			}
		}
		if m.fired != int(m.id) {
			t.Fatalf("seed %d: dispatched %d of %d scheduled events", seed, m.fired, m.id)
		}
		cov.appended += m.cov.appended
		cov.fellBack += m.cov.fellBack
		cov.laneStops += m.cov.laneStops
		cov.laneDeadlines += m.cov.laneDeadlines
		cov.behindSeries += m.cov.behindSeries
		cov.seriesQueued += m.cov.seriesQueued
		cov.seriesRefused += m.cov.seriesRefused
		cov.sharedWakes += m.cov.sharedWakes
		cov.procStops += m.cov.procStops
		cov.selfResumes += m.cov.selfResumes
		cov.handoffs += m.cov.handoffs
		cov.directResumes += m.cov.directResumes
		cov.unwinds += m.cov.unwinds
		cov.loopEnds += m.cov.loopEnds
		cov.deepUnwinds += m.cov.deepUnwinds
		cov.exits += m.cov.exits
	}
	if cov.appended == 0 || cov.fellBack == 0 || cov.laneStops == 0 || cov.laneDeadlines == 0 ||
		cov.behindSeries == 0 || cov.seriesQueued == 0 || cov.seriesRefused == 0 ||
		cov.sharedWakes == 0 || cov.procStops == 0 ||
		cov.selfResumes == 0 || cov.handoffs == 0 || cov.loopEnds == 0 ||
		cov.directResumes == 0 || cov.unwinds == 0 || cov.deepUnwinds == 0 || cov.exits == 0 {
		t.Fatalf("mix missed a path: %+v", cov)
	}
	t.Logf("coverage: %+v", cov)
}
