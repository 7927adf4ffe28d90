package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// Signal is a one-shot completion event. Processes can block on it, and
// event-driven code can attach callbacks. Firing is idempotent-hostile:
// firing twice is a model bug and panics. The one reusable exception is
// Wakeup, which fires any number of times.
//
// A Signal is 64 bytes, one allocation class, and can live by value inside
// the struct that owns its operation (see InitSignal). It must not be
// copied once initialized.
type Signal struct {
	eng  *Engine
	name name
	// at is ^t once the signal has fired at t, and 0 before: the sign
	// bit is the fired flag.
	at Time
	// First waiter and first callback live in inline slots: most signals
	// (one per fabric message, RDMA op, MPI request) see exactly one
	// waiter and at most one callback, so the common case registers and
	// fires without allocating. Later ones go to the overflow record.
	waiter0 *Proc
	cb0     func()
	more    *signalOverflow
}

// signalOverflow holds a signal's second and later waiters and callbacks,
// in registration order.
type signalOverflow struct {
	waiters []*Proc
	cbs     []func()
}

// name is a signal's name kept as its parts: a format and up to two
// numbers, which replace the format's first and second %d. It is rendered
// only when read, by a deadlock report, the "fired twice" panic or a
// traced block span, so naming a signal per operation builds no string.
type name struct {
	format string
	a, b   int32
}

func nameOf(format string, nums []int) name {
	if len(nums) > 2 {
		panic("sim: a signal name takes at most two numbers")
	}
	n := name{format: format}
	if len(nums) > 0 {
		n.a = int32(nums[0])
	}
	if len(nums) > 1 {
		n.b = int32(nums[1])
	}
	return n
}

// String renders the name: the format with %d replaced by a, then b.
func (n name) String() string {
	out := n.format
	for _, v := range [2]int32{n.a, n.b} {
		i := strings.Index(out, "%d")
		if i < 0 {
			break
		}
		out = out[:i] + strconv.Itoa(int(v)) + out[i+2:]
	}
	return out
}

// NewSignal creates a signal named format, whose first and second %d
// stand for nums (at most two). The name appears in deadlock reports.
func (e *Engine) NewSignal(format string, nums ...int) *Signal {
	return &Signal{eng: e, name: nameOf(format, nums)}
}

// InitSignal readies s, typically a field of the struct that owns the
// operation it completes, as a fresh unfired signal: one allocation then
// covers both. It is named as NewSignal names its signal; the name is
// rendered only when read, so naming a signal per (a, b) pair, as "ib send
// %d->%d", builds no string.
func (e *Engine) InitSignal(s *Signal, format string, nums ...int) {
	*s = Signal{eng: e, name: nameOf(format, nums)}
}

// Name renders the signal's name (cold paths only).
func (s *Signal) Name() string { return s.name.String() }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.at < 0 }

// FiredAt reports when the signal fired; only meaningful if Fired.
func (s *Signal) FiredAt() Time { return ^s.at }

// Fire marks the signal complete, wakes all blocked processes, and schedules
// all callbacks at the current time. Safe from event or process context.
func (s *Signal) Fire() {
	if s.Fired() {
		panic(fmt.Sprintf("sim: signal %q fired twice", s.Name()))
	}
	s.at = ^s.eng.now
	more := s.more
	s.more = nil
	if s.waiter0 != nil {
		s.waiter0.wake()
		s.waiter0 = nil
	}
	if more != nil {
		for _, w := range more.waiters {
			w.wake()
		}
	}
	if s.cb0 != nil {
		s.eng.After(0, s.cb0)
		s.cb0 = nil
	}
	if more != nil {
		for _, cb := range more.cbs {
			s.eng.After(0, cb)
		}
	}
}

// HasListeners reports whether firing the signal now would wake a process
// or schedule a callback.
func (s *Signal) HasListeners() bool {
	return s.waiter0 != nil || s.cb0 != nil
}

// OnFire registers fn to run when the signal fires (immediately scheduled if
// it already has).
func (s *Signal) OnFire(fn func()) {
	if s.Fired() {
		s.eng.After(0, fn)
		return
	}
	if s.cb0 == nil {
		s.cb0 = fn
		return
	}
	if s.more == nil {
		s.more = &signalOverflow{}
	}
	s.more.cbs = append(s.more.cbs, fn)
}

// addWaiter registers a process for wakeup, deduplicating: a process
// re-registering after a spurious (level-triggered) wake must not
// accumulate entries, or one Fire would schedule a burst of redundant
// wakes that re-register again — an amplifying event storm.
func (s *Signal) addWaiter(p *Proc) {
	if s.waiter0 == nil {
		s.waiter0 = p
		return
	}
	if s.waiter0 == p {
		return
	}
	if s.more == nil {
		s.more = &signalOverflow{}
	}
	for _, w := range s.more.waiters {
		if w == p {
			return
		}
	}
	s.more.waiters = append(s.more.waiters, p)
}

// Wait blocks the process until the signal fires. Returns immediately if it
// already has.
func (p *Proc) Wait(s *Signal) {
	p.checkRunning()
	for !s.Fired() {
		s.addWaiter(p)
		p.park("waiting on signal ", s)
	}
}

// WaitAll blocks until every signal has fired.
func (p *Proc) WaitAll(sigs ...*Signal) {
	for _, s := range sigs {
		p.Wait(s)
	}
}

// WaitAny blocks until at least one of the signals has fired and returns the
// index of the first fired signal (lowest index among fired).
func (p *Proc) WaitAny(sigs ...*Signal) int {
	p.checkRunning()
	if len(sigs) == 0 {
		panic("sim: WaitAny with no signals")
	}
	for {
		for i, s := range sigs {
			if s.Fired() {
				return i
			}
		}
		// Register with all; first to fire wakes us. Waking is level-
		// triggered (the loop above rechecks), and registration is
		// deduplicated, so stale entries cost one wake at most.
		for _, s := range sigs {
			s.addWaiter(p)
		}
		p.park("waiting on any of ", sigs[0])
	}
}

// Wakeup is a reusable wake-up: a signal that re-arms in place each time
// it fires, and counts its fires. It serves an owner that wakes one or a
// few processes over and over (a rank on every delivery, a node's
// computing slots on every membership change), and lives by value in that
// owner, so a fire allocates nothing.
//
// A waiter captures Count before it checks its condition and, if the
// condition does not hold, passes that count to Proc.WaitWakeup. It holds
// a count, not a signal, so a fire between the capture and the wait is not
// lost although the wake-up has re-armed since. A Wakeup takes no
// callbacks.
type Wakeup struct {
	sig   Signal
	count uint64
}

// InitWakeup readies w, typically a field of its owner, with no fires. It
// is named as NewSignal names its signal.
func (e *Engine) InitWakeup(w *Wakeup, format string, nums ...int) {
	*w = Wakeup{}
	e.InitSignal(&w.sig, format, nums...)
}

// Count reports how many times the wake-up has fired.
func (w *Wakeup) Count() uint64 { return w.count }

// Fire advances the count and wakes every registered process, in
// registration order, as a one-shot signal's Fire does; then it re-arms,
// keeping the overflow record for the next round's waiters. With no
// process registered it schedules nothing.
func (w *Wakeup) Fire() {
	w.count++
	more := w.sig.more
	w.sig.Fire()
	w.sig.at = 0
	if more != nil {
		clear(more.waiters)
		more.waiters = more.waiters[:0]
		w.sig.more = more
	}
}

// WaitWakeup blocks until w's count has moved past seen or one of sigs has
// fired, and returns at once if either already holds. A wake for anything
// else re-parks. Blocked, it reads as Wait on w, or with sigs as WaitAny
// on sigs and w.
func (p *Proc) WaitWakeup(w *Wakeup, seen uint64, sigs ...*Signal) {
	p.checkRunning()
	state, obj := "waiting on signal ", &w.sig
	if len(sigs) > 0 {
		state, obj = "waiting on any of ", sigs[0]
	}
	for w.count == seen {
		for _, s := range sigs {
			if s.Fired() {
				return
			}
		}
		for _, s := range sigs {
			s.addWaiter(p)
		}
		w.sig.addWaiter(p)
		p.park(state, obj)
	}
}

// Server models a FIFO resource with a single service channel (a link, a
// DMA engine, a NIC processor, a bus). Work items are serialized: each item
// begins service when the server becomes free and occupies it for the item's
// duration. The implementation keeps only a "busy until" horizon, so
// scheduling is O(1) per item.
type Server struct {
	eng       *Engine
	busyUntil Time
	busyTotal Duration // accumulated service time, for utilization stats
	served    uint64

	// touch, when non-nil, runs at the top of ServeAt before the new work
	// is applied. It exists for layers that summarize future FIFO traffic
	// analytically (fabric message coalescing): the hook lets the owner
	// materialize that summarized traffic into the horizon the moment any
	// other client touches the server, so the newcomer queues behind
	// exactly the work the event-by-event model would have posted. The
	// hook may mutate the server (via Absorb); ServeAt reads server state
	// only after it returns.
	touch func()

	// lane orders the server's completion events; built on first use so
	// servers nobody schedules completions on cost nothing extra.
	lane *Lane
}

// Lane returns the server's completion lane. A FIFO server's busy horizon
// only grows, so completion times busyUntil+lat with a fixed post-service
// latency lat are nondecreasing: the ordered-lane case.
func (s *Server) Lane() *Lane {
	if s.lane == nil {
		s.lane = s.eng.newLane()
	}
	return s.lane
}

// NewServer creates an idle server.
func (e *Engine) NewServer() *Server {
	return &Server{eng: e}
}

// Serve enqueues work of duration d and returns its completion time.
func (s *Server) Serve(d Duration) Time {
	return s.ServeAt(s.eng.now, d)
}

// ServeAt enqueues work of duration d that cannot start before ready (e.g.
// data not yet arrived) and returns its completion time.
func (s *Server) ServeAt(ready Time, d Duration) Time {
	if s.touch != nil {
		s.touch()
	}
	if d < 0 {
		d = 0
	}
	start := ready
	if s.eng.now > start {
		start = s.eng.now
	}
	if s.busyUntil > start {
		start = s.busyUntil
	}
	s.busyUntil = start.Add(d)
	s.busyTotal += d
	s.served++
	return s.busyUntil
}

// ServeThen enqueues work and schedules fn at its completion time.
func (s *Server) ServeThen(d Duration, fn func()) Time {
	done := s.Serve(d)
	s.eng.At(done, fn)
	return done
}

// ServePipelined models a pipelined processing engine: each work item
// occupies the server for `occupancy` (limiting throughput) but its result
// is only available `latency` after it begins service (latency >=
// occupancy usually). fn runs at start+latency. Returns that time.
func (s *Server) ServePipelined(occupancy, latency Duration, fn func()) Time {
	if latency < occupancy {
		latency = occupancy
	}
	end := s.Serve(occupancy)
	ready := end.Add(latency - occupancy)
	s.eng.At(ready, fn)
	return ready
}

// OnServe installs (or, with nil, removes) the server's touch hook: a
// callback invoked at the top of every ServeAt before the new work is
// applied. At most one hook is active at a time; installing over an
// existing hook replaces it. The hook must uninstall itself before
// re-entering ServeAt on the same server.
func (s *Server) OnServe(fn func()) { s.touch = fn }

// Hooked reports whether a touch hook is installed.
func (s *Server) Hooked() bool { return s.touch != nil }

// Absorb folds a batch of already-completed-in-the-model FIFO work into
// the server's accounting in O(1): the busy horizon advances to horizon
// (never backward), busyTotal grows by busy, and served by items. It is
// the bulk counterpart of `items` ServeAt calls whose start/completion
// times the caller computed analytically — utilization and served
// statistics come out identical to posting each item individually.
func (s *Server) Absorb(horizon Time, busy Duration, items uint64) {
	if horizon > s.busyUntil {
		s.busyUntil = horizon
	}
	s.busyTotal += busy
	s.served += items
}

// BusyUntil reports the server's current busy horizon.
func (s *Server) BusyUntil() Time { return s.busyUntil }

// Utilization reports busyTotal / elapsed since time zero.
func (s *Server) Utilization() float64 {
	if s.eng.now == 0 {
		return 0
	}
	return s.busyTotal.Seconds() / s.eng.now.Seconds()
}

// Served reports the number of work items accepted.
func (s *Server) Served() uint64 { return s.served }

// BusyTotal reports the total service time accepted so far.
func (s *Server) BusyTotal() Duration { return s.busyTotal }
