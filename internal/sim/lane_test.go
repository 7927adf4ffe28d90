package sim

import (
	"container/heap"
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
	left    int   // scheduling budget
	stopped bool  // Stop was called since the test last looked
	host    *Proc // the parked process whose stack runs the dispatch loop

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
	selfResumes int // it reached the process's own wake: no switch
	handoffs    int // it reached another process's resume
	loopEnds    int // the run ended (deadline, Stop or drain)
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
	if m.e.onProc != (m.host != nil) {
		m.t.Fatalf("dispatch %d ran on a process stack: %v, want %v", m.fired, m.e.onProc, m.host != nil)
	}
	want := heap.Pop(&m.ref).(event)
	if want.at != k.at || want.seq != k.seq || m.e.Now() != k.at {
		m.t.Fatalf("dispatch %d: got (%d,%d) at clock %d, want (%d,%d)",
			m.fired, k.at, k.seq, m.e.Now(), want.at, want.seq)
	}
	m.fired++
}

// park runs block, which must park p, noting that the dispatch loop runs
// on p's stack until a process resumes.
func (m *refModel) park(p *Proc, block func()) {
	m.host = p
	block()
	m.resume(p)
}

// resume counts how p came to run: its own stack's loop reached its wake
// (no switch), another parked process's loop handed off to it, or the
// scheduler resumed it.
func (m *refModel) resume(p *Proc) {
	switch m.host {
	case nil:
	case p:
		m.cov.selfResumes++
	default:
		m.cov.handoffs++
	}
	m.host = nil
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
// sorted (at, seq) order of everything scheduled. Every dispatch also
// checks that it runs on a parked process's stack exactly when the model
// says a process parked since the last resume and the run is still on,
// and the mix must end that loop in each of its three ways.
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
			if m.host != nil {
				m.cov.loopEnds++
				m.host = nil
			}
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
		m.host = nil
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
		cov.loopEnds += m.cov.loopEnds
	}
	if cov.appended == 0 || cov.fellBack == 0 || cov.laneStops == 0 || cov.laneDeadlines == 0 ||
		cov.behindSeries == 0 || cov.seriesQueued == 0 || cov.seriesRefused == 0 ||
		cov.sharedWakes == 0 || cov.procStops == 0 ||
		cov.selfResumes == 0 || cov.handoffs == 0 || cov.loopEnds == 0 {
		t.Fatalf("mix missed a path: %+v", cov)
	}
	t.Logf("coverage: %+v", cov)
}
