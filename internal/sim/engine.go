// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel supports two styles of model code:
//
//   - Event-driven callbacks, scheduled with (*Engine).At / (*Engine).After.
//     Callbacks run on the scheduler or on a parked process's stack; either
//     way, one at a time in (at, seq) order.
//   - Simulated processes ((*Engine).Spawn), each a coroutine that can
//     block on simulated time (Sleep) and synchronization objects (Signal,
//     Server). At most one process executes at a time. A parked process
//     runs the dispatch loop on its own stack and resumes the next
//     process directly, so coroutines switch only where the running
//     process changes (see Proc.park). Every transfer is a synchronous
//     coroutine switch, so simulations are deterministic: the same
//     program with the same seeds produces bit-identical event orders and
//     timestamps.
//
// Determinism is load-bearing for this repository: every experiment in
// EXPERIMENTS.md must be exactly reproducible.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
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
// a concrete element type means no interface{} boxing on push/pop.
//
// The heap is shallow (tens of entries on the benchmark workloads), so
// its cost is branch mispredictions, not depth. A sift moves the element
// being placed instead of swapping it, and picks each level's smallest
// child with no data-dependent branch: keyLess compares two keys as one
// 128-bit unsigned subtraction, and the running minimum is selected
// through the borrow as a mask. DESIGN §9.1 has the measurements.
//
// Because every queued event carries a unique seq and the comparison is
// a strict total order on (at, seq), the dequeue sequence is the unique
// sorted order of the queued keys — identical to what any correct heap
// (including the previous container/heap implementation) produces. The
// arity and the sift are therefore invisible to simulations; see
// TestEventQueueMatchesReferenceHeap for the differential proof.
//
// The backing slice is retained across Run/RunUntil calls and popped
// slots are cleared (so the fn closures can be collected) without
// shrinking capacity: after warm-up, push and pop are allocation-free.
type eventQueue struct {
	ev []event
}

// keyLess returns 1 if the key (at1, seq1) is below (at2, seq2) and 0
// otherwise: the borrow out of the 128-bit subtraction at1:seq1 −
// at2:seq2. Comparing at as unsigned is exact because no key's at is
// negative: At clamps to now ≥ 0, and Forever is MaxInt64.
func keyLess(at1 Time, seq1 uint64, at2 Time, seq2 uint64) uint64 {
	_, b := bits.Sub64(seq1, seq2, 0)
	_, b = bits.Sub64(uint64(at1), uint64(at2), b)
	return b
}

func eventLess(a, b event) bool { return keyLess(a.at, a.seq, b.at, b.seq) != 0 }

func (q *eventQueue) len() int { return len(q.ev) }

// push sifts x up from a new last slot, moving each larger parent down
// one level, and writes x once where it stops.
func (q *eventQueue) push(x event) {
	q.ev = append(q.ev, x)
	ev := q.ev
	i := len(ev) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(x, ev[p]) {
			break
		}
		ev[i] = ev[p]
		i = p
	}
	ev[i] = x
}

func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	x := q.ev[n]
	q.ev[n] = event{} // clear the vacated slot so fn can be collected
	q.ev = q.ev[:n]
	if n > 1 {
		q.siftDown(x)
	} else if n == 1 {
		q.ev[0] = x
	}
	return top
}

// siftDown places x, which replaces the root, moving the smallest child
// up one level while it is below x.
func (q *eventQueue) siftDown(x event) {
	ev := q.ev
	n := len(ev)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m, at, seq := first, ev[first].at, ev[first].seq
		for c := first + 1; c < min(first+4, n); c++ {
			cat, cseq := ev[c].at, ev[c].seq
			mask := -keyLess(cat, cseq, at, seq)
			at ^= (at ^ cat) & Time(mask)
			seq ^= (seq ^ cseq) & mask
			m ^= (m ^ c) & int(mask)
		}
		if keyLess(at, seq, x.at, x.seq) == 0 {
			break
		}
		ev[i] = ev[m]
		i = m
	}
	ev[i] = x
}

// Engine is a discrete-event scheduler. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now    Time
	events eventQueue
	seq    uint64

	procs   []*Proc
	running *Proc

	// The run's deadline, and the dispatch loop's state while it runs on a
	// parked process's stack (see Proc.park): host is that process, nil on
	// the scheduler's stack or while a process runs, and handoff is the
	// process a callback there woke.
	deadline Time
	host     *Proc
	handoff  *Proc

	stopped   bool
	err       error
	nEvents   uint64
	nWakes    uint64
	nSwitches uint64
	maxEvents uint64

	// keys is a running hash of every dispatched (at, seq), in dispatch
	// order (see KeyDigest).
	keys uint64

	// checkAt is the event count at which dispatch next takes the slow
	// path, which enforces maxEvents and polls ctx: MaxUint64 when neither
	// is set, and one compare per event either way.
	ctx     context.Context
	checkAt uint64

	// Observability (see internal/metrics). Both stay nil by default, and
	// the engine runs the same event sequence with or without them. The
	// counts above fold into reg at FlushMetrics; folded holds what the
	// last fold saw.
	reg    *metrics.Registry
	track  *metrics.Track
	folded [4]uint64
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{checkAt: math.MaxUint64}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SetMetrics attaches an observability registry to the engine. label names
// the engine's timeline track (the process group in an exported Chrome
// trace); a track is only created when the registry has tracing enabled.
// Call before running. A nil registry detaches.
func (e *Engine) SetMetrics(reg *metrics.Registry, label string) {
	e.reg = reg
	e.track = reg.NewTrack(label)
	e.FlushMetrics()
}

// FlushMetrics adds to the attached registry the events dispatched,
// process wakes, coroutine switches and processes spawned since the last
// flush. No-op without a registry.
func (e *Engine) FlushMetrics() {
	e.reg.Fold(e.folded[:],
		metrics.Tally{Name: "sim.events_dispatched", Total: e.nEvents},
		metrics.Tally{Name: "sim.proc_wakes", Total: e.nWakes},
		metrics.Tally{Name: "sim.proc_switches", Total: e.nSwitches},
		metrics.Tally{Name: "sim.procs_spawned", Total: uint64(len(e.procs))})
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

// KeyDigest returns e's running hash of every (at, seq) it has
// dispatched, in dispatch order. Tests compare it with a recorded value
// to pin that a change keeps every event's key.
func KeyDigest(e *Engine) uint64 { return e.keys }

// SetEventLimit aborts the run with an error after n dispatched events.
// Zero (the default) means no limit. Used as a runaway-model backstop in
// tests.
func (e *Engine) SetEventLimit(n uint64) {
	e.maxEvents = n
	e.rearm()
}

// pollEvery is how many events dispatch runs between two polls of the
// context: rare enough to cost nothing per event, often enough that a
// canceled run stops within about a millisecond of host time.
const pollEvery = 1 << 12

// SetContext makes later runs observe ctx: a run polls it before its first
// event and every pollEvery events after, and once ctx is done the run
// ends with an error wrapping both ErrCanceled and ctx.Err(). A context
// that is never done changes no event. Nil detaches.
func (e *Engine) SetContext(ctx context.Context) {
	e.ctx = ctx
	e.rearm()
}

// rearm sets checkAt to the next event count at which the slow path must
// run: one past the event limit, or the next poll, whichever comes first.
func (e *Engine) rearm() {
	e.checkAt = math.MaxUint64
	if e.maxEvents > 0 {
		e.checkAt = e.maxEvents + 1
	}
	if e.ctx != nil {
		e.checkAt = min(e.checkAt, e.nEvents+pollEvery)
	}
}

// checkpoint is dispatch's slow path, taken before a run's first event
// and whenever nEvents reaches checkAt: it fails the run past the event
// limit or once the context is done, and otherwise sets the next checkAt.
func (e *Engine) checkpoint() error {
	if e.maxEvents > 0 && e.nEvents > e.maxEvents {
		return fmt.Errorf("%w after %d events at t=%v", ErrEventLimit, e.nEvents, e.now)
	}
	if e.ctx != nil && e.ctx.Err() != nil {
		return fmt.Errorf("%w after %d events at t=%v: %w", ErrCanceled, e.nEvents, e.now, e.ctx.Err())
	}
	e.rearm()
	return nil
}

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in the model; the kernel treats it as "now". Every event goes to
// the heap with the key (max(t, now), next seq).
func (e *Engine) At(t Time, fn func()) {
	e.seq++
	e.events.push(event{at: max(t, e.now), seq: e.seq, fn: fn})
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

// ErrCanceled is returned when the context set with SetContext is done.
// The error also wraps the context's own error, so errors.Is matches
// context.Canceled or context.DeadlineExceeded as well.
var ErrCanceled = errors.New("sim: canceled")

// PanicError is a panic raised by an event callback or a process body,
// recorded as the run's error. Its message names where and when the panic
// happened and the panic's value, and so is the same in every invocation;
// the goroutine stack, whose numbers and addresses are not, stays out of
// it, in Stack.
type PanicError struct {
	// In is "event" or `process "<name>"`.
	In    string
	At    Time
	Value any
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: panic in %s at t=%v: %v\n(goroutine stack in sim.PanicError.Stack)", e.In, e.At, e.Value)
}

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
// Stop, an error, or deadlock. A panic in an event ends the run with an
// error naming the event's time; the engine keeps that error, as it keeps
// ErrCanceled and ErrEventLimit.
func (e *Engine) RunUntil(deadline Time) (err error) {
	if e.err != nil {
		return e.err
	}
	if e.stopped {
		// Honor a Stop issued before this run: consume it and do nothing.
		e.stopped = false
		return nil
	}
	// A run whose context is already done dispatches nothing.
	if e.err = e.checkpoint(); e.err != nil {
		return e.err
	}
	// One recover for the whole run, not one per event: a panic unwinds
	// the loop, which is over either way.
	defer func() {
		if r := recover(); r != nil {
			e.eventPanic(r)
			err = e.err
		}
	}()
	e.deadline = deadline
	e.dispatch()
	switch {
	case e.err != nil:
		return e.err
	case e.stopped:
		e.stopped = false
		return nil
	case e.events.len() > 0: // the next event lies past the deadline
		e.advanceTo(deadline)
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

// dispatch runs events in (at, seq) order, each time taking the heap's
// top, until the run must end: Stop was called, an error is recorded, no
// event is queued, or the next lies past the deadline; RunUntil tells
// these apart from the engine's state. On a parked process's stack it also
// returns once a callback resumed a process (handoff). RunUntil and
// Proc.park both run this one loop, so the order and the checks are the
// same on either stack.
func (e *Engine) dispatch() {
	for !e.stopped && e.err == nil && e.handoff == nil {
		// Lane heads sit in the heap like any other event.
		if e.events.len() == 0 || e.events.ev[0].at > e.deadline {
			return
		}
		ev := e.events.pop()
		e.now = ev.at
		e.nEvents++
		e.keys = (e.keys^ev.seq)*keyMul ^ uint64(ev.at)
		if e.nEvents >= e.checkAt {
			if e.err = e.checkpoint(); e.err != nil {
				return
			}
		}
		ev.fn()
	}
}

// keyMul is the odd multiplier of the event-key hash (FNV-1a's 64-bit
// prime).
const keyMul = 1099511628211

// eventPanic records a panic raised by an event callback as the run's
// error, naming the event's time.
func (e *Engine) eventPanic(r any) {
	e.err = &PanicError{In: "event", At: e.now, Value: r, Stack: string(debug.Stack())}
}

// advanceTo moves the clock forward to deadline on a clean RunUntil return.
// Forever is a sentinel, not a timestamp, and the clock never runs backward.
func (e *Engine) advanceTo(deadline Time) {
	if deadline != units.Forever && deadline > e.now {
		e.now = deadline
	}
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

// Shutdown unwinds every live process coroutine. Call it when abandoning an
// engine (after a deadlock, error, or early Stop) to avoid leaking parked
// coroutines. The engine must not be run again afterwards.
func (e *Engine) Shutdown() {
	// A process that blocks again while it unwinds runs no event.
	e.stopped = true
	for _, p := range e.procs {
		if p.done {
			continue
		}
		e.running = p
		p.stop()
		e.running = nil
		p.done = true
		p.state, p.obj = "done", nil
	}
}
