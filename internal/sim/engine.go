// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel supports two styles of model code:
//
//   - Event-driven callbacks, scheduled with (*Engine).At / (*Engine).After.
//     Callbacks run on the scheduler goroutine.
//   - Simulated processes ((*Engine).Spawn), each backed by a goroutine that
//     can block on simulated time (Sleep) and synchronization objects
//     (Signal, Queue, Server). At most one process executes at a time, and
//     control transfers between the scheduler and processes are fully
//     synchronous, so simulations are deterministic: the same program with
//     the same seeds produces bit-identical event orders and timestamps.
//
// Determinism is load-bearing for this repository: every experiment in
// EXPERIMENTS.md must be exactly reproducible.
package sim

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/units"
)

// Re-exported aliases so model code only imports sim.
type (
	// Time is an absolute simulated timestamp (picoseconds).
	Time = units.Time
	// Duration is a simulated span (picoseconds).
	Duration = units.Duration
)

type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventQueue is a monomorphic 4-ary min-heap of events ordered by
// (at, seq). It replaces container/heap on the kernel's hottest path:
// a concrete element type means no interface{} boxing on push/pop, and
// a 4-ary layout halves the tree depth versus a binary heap, trading a
// slightly wider sibling scan (cheap: the elements are adjacent in one
// or two cache lines) for fewer swap levels per sift.
//
// Because every queued event carries a unique seq and the comparison is
// a strict total order on (at, seq), the dequeue sequence is the unique
// sorted order of the queued keys — identical to what any correct heap
// (including the previous container/heap implementation) produces. The
// arity is therefore invisible to simulations; see
// TestEventQueueMatchesReferenceHeap for the differential proof.
//
// The backing slice is retained across Run/RunUntil calls and popped
// slots are cleared (so the fn closures can be collected) without
// shrinking capacity: after warm-up, push and pop are allocation-free.
type eventQueue struct {
	ev []event
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) len() int { return len(q.ev) }

func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(q.ev[i], q.ev[p]) {
			break
		}
		q.ev[i], q.ev[p] = q.ev[p], q.ev[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = event{} // clear the vacated slot so fn can be collected
	q.ev = q.ev[:n]
	if n > 1 {
		q.siftDown()
	}
	return top
}

func (q *eventQueue) siftDown() {
	ev := q.ev
	n := len(ev)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(ev[c], ev[min]) {
				min = c
			}
		}
		if !eventLess(ev[min], ev[i]) {
			return
		}
		ev[i], ev[min] = ev[min], ev[i]
		i = min
	}
}

// Engine is a discrete-event scheduler. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now    Time
	events eventQueue
	seq    uint64

	procs   []*Proc
	running *Proc
	parked  chan *Proc

	stopped   bool
	err       error
	nEvents   uint64
	maxEvents uint64

	// Observability (see internal/metrics). All fields stay nil by default:
	// instrument methods on nil receivers are no-ops, so an engine without
	// metrics runs the exact same event sequence at negligible extra cost.
	reg     *metrics.Registry
	track   *metrics.Track
	mEvents *metrics.Counter
	mWakes  *metrics.Counter
	mSpawns *metrics.Counter

	// Trace, when non-nil, receives a line for every event dispatch and
	// process state change. Intended for debugging small models.
	Trace func(line string)
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{parked: make(chan *Proc)}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SetMetrics attaches an observability registry to the engine. label names
// the engine's timeline track (the process group in an exported Chrome
// trace); a track is only created when the registry has tracing enabled.
// Call before running. A nil registry detaches.
func (e *Engine) SetMetrics(reg *metrics.Registry, label string) {
	e.reg = reg
	e.mEvents = reg.Counter("sim.events_dispatched")
	e.mWakes = reg.Counter("sim.proc_wakes")
	e.mSpawns = reg.Counter("sim.procs_spawned")
	e.track = reg.NewTrack(label)
}

// Metrics returns the attached registry (nil when detached). Model layers
// built over this engine fetch their instruments through it.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// TraceTrack returns the engine's timeline track, nil unless SetMetrics was
// called with a tracing-enabled registry. Rows (tids) within the track are
// partitioned by convention: TidRank+i for MPI ranks, TidProc+i for
// blocked-process spans, TidNode+i for fabric per-node message spans.
func (e *Engine) TraceTrack() *metrics.Track { return e.track }

// Timeline row (tid) bases shared by the layers recording onto one engine
// track. Chrome's trace viewer sorts rows by tid, so ranks come first, then
// per-node fabric rows, then blocked-process rows.
const (
	TidRank int64 = 0
	TidNode int64 = 10000
	TidProc int64 = 20000
)

// Events reports the number of events dispatched so far.
func (e *Engine) Events() uint64 { return e.nEvents }

// SetEventLimit aborts the run with an error after n dispatched events.
// Zero (the default) means no limit. Used as a runaway-model backstop in
// tests.
func (e *Engine) SetEventLimit(n uint64) { e.maxEvents = n }

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in the model; the kernel treats it as "now" but records a trace
// line to aid debugging.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		e.tracef("WARN: event scheduled in the past (%v < %v); clamping", t, e.now)
		t = e.now
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

// ErrDeadlock is returned by Run when no events remain but live processes
// are still blocked.
var ErrDeadlock = errors.New("sim: deadlock")

// ErrEventLimit is returned when the configured event limit is exceeded.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// Stop requests that the run loop return after the current event. It may be
// called from event or process context, or before a run: a Stop issued
// while the engine is idle makes the next Run/RunUntil return immediately
// (dispatching nothing); the run after that proceeds normally.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events until none remain, an error occurs, or Stop is
// called. It returns ErrDeadlock if blocked processes remain at quiescence.
func (e *Engine) Run() error { return e.RunUntil(units.Forever) }

// RunUntil dispatches events with timestamps <= deadline. On a clean return
// the clock is advanced to deadline — whether the queue drained or the next
// event lies beyond it — so callers interleaving RunUntil with Now read the
// time they ran to. The clock never moves backward (a deadline already in
// the past leaves it unchanged), never advances to the Forever sentinel,
// and is left at the last dispatched event when the run ends early via
// Stop, an error, or deadlock.
func (e *Engine) RunUntil(deadline Time) error {
	if e.err != nil {
		return e.err
	}
	if e.stopped {
		// Honor a Stop issued before this run: consume it and do nothing.
		e.stopped = false
		return nil
	}
	for e.events.len() > 0 && !e.stopped {
		if e.events.ev[0].at > deadline {
			e.advanceTo(deadline)
			return nil
		}
		ev := e.events.pop()
		e.now = ev.at
		e.nEvents++
		e.mEvents.Inc()
		if e.maxEvents > 0 && e.nEvents > e.maxEvents {
			e.err = fmt.Errorf("%w after %d events at t=%v", ErrEventLimit, e.nEvents, e.now)
			return e.err
		}
		e.dispatch(ev)
		if e.err != nil {
			return e.err
		}
	}
	if e.stopped {
		e.stopped = false
		return nil
	}
	if blocked := e.blockedProcs(); len(blocked) > 0 {
		e.err = fmt.Errorf("%w at t=%v: %d blocked process(es): %s",
			ErrDeadlock, e.now, len(blocked), strings.Join(blocked, "; "))
		return e.err
	}
	e.advanceTo(deadline)
	return nil
}

// advanceTo moves the clock forward to deadline on a clean RunUntil return.
// Forever is a sentinel, not a timestamp, and the clock never runs backward.
func (e *Engine) advanceTo(deadline Time) {
	if deadline != units.Forever && deadline > e.now {
		e.now = deadline
	}
}

func (e *Engine) dispatch(ev event) {
	defer func() {
		if r := recover(); r != nil {
			e.err = fmt.Errorf("sim: panic in event at t=%v: %v\n%s", e.now, r, debug.Stack())
		}
	}()
	ev.fn()
}

func (e *Engine) blockedProcs() []string {
	var out []string
	for _, p := range e.procs {
		if !p.done {
			out = append(out, fmt.Sprintf("%s (%s)", p.name, p.stateString()))
		}
	}
	sort.Strings(out)
	return out
}

// Err reports the first fatal error recorded by the engine.
func (e *Engine) Err() error { return e.err }

// Fail records err as the engine's fatal error; the run loop returns it
// after the current event's dispatch completes. Only the first failure is
// kept. Model layers use this to surface unrecoverable conditions (e.g. an
// IB QP error after retransmission exhaustion) as a deterministic error
// instead of a panic: the message carries no stack, so it is identical
// across runs and safe to record in artifacts.
func (e *Engine) Fail(err error) {
	if err != nil && e.err == nil {
		e.err = err
	}
}

// Shutdown unwinds every live process goroutine. Call it when abandoning an
// engine (after a deadlock, error, or early Stop) to avoid leaking parked
// goroutines. The engine must not be run again afterwards.
func (e *Engine) Shutdown() {
	for _, p := range e.procs {
		if p.done {
			continue
		}
		p.killed = true
		e.running = p
		p.resume <- struct{}{}
		<-e.parked
		e.running = nil
	}
}

func (e *Engine) tracef(format string, args ...interface{}) {
	if e.Trace != nil {
		e.Trace(fmt.Sprintf("[%v] ", e.now) + fmt.Sprintf(format, args...))
	}
}
