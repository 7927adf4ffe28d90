package sim

import (
	"fmt"
	"strconv"
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
	name string
	at   Time
	// First waiter and first callback live in inline slots: most signals
	// (one per fabric message, RDMA op, MPI request) see exactly one
	// waiter and at most one callback, so the common case registers and
	// fires without allocating. Later ones go to the overflow record.
	waiter0 *Proc
	cb0     func()
	more    *signalOverflow
	fired   bool
}

// signalOverflow holds a signal's second and later waiters and callbacks,
// in registration order.
type signalOverflow struct {
	waiters []*Proc
	cbs     []func()
}

// NewSignal creates a signal. The name appears in deadlock reports.
func (e *Engine) NewSignal(name string) *Signal {
	return &Signal{eng: e, name: name}
}

// InitSignal readies s, typically a field of the struct that owns the
// operation it completes, as a fresh unfired signal: one allocation then
// covers both. The name appears in deadlock reports.
func (e *Engine) InitSignal(s *Signal, name string) {
	*s = Signal{eng: e, name: name}
}

// PairNames renders signal names of the form Prefix+a+Sep+b, such as "ib
// send 0->1", once per (a, b) on first use, so a layer that creates a
// signal per operation does not build a string per operation. Names are
// kept in one slice per a, indexed by b+1 so that b may be -1 (any
// source); both grow on demand. The zero value with Prefix and Sep set is
// ready to use.
type PairNames struct {
	Prefix, Sep string
	names       [][]string
}

// Name returns the name for (a, b).
func (n *PairNames) Name(a, b int) string {
	if a < 0 || b < -1 {
		return n.render(a, b) // not cached; no layer names such a pair
	}
	if a >= len(n.names) {
		n.names = append(n.names, make([][]string, a+1-len(n.names))...)
	}
	row := n.names[a]
	if b+1 >= len(row) {
		row = append(row, make([]string, b+2-len(row))...)
		n.names[a] = row
	}
	if row[b+1] == "" {
		row[b+1] = n.render(a, b)
	}
	return row[b+1]
}

func (n *PairNames) render(a, b int) string {
	return n.Prefix + strconv.Itoa(a) + n.Sep + strconv.Itoa(b)
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// FiredAt reports when the signal fired; only meaningful if Fired.
func (s *Signal) FiredAt() Time { return s.at }

// Fire marks the signal complete, wakes all blocked processes, and schedules
// all callbacks at the current time. Safe from event or process context.
func (s *Signal) Fire() {
	if s.fired {
		panic(fmt.Sprintf("sim: signal %q fired twice", s.name))
	}
	s.fired = true
	s.at = s.eng.now
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
	if s.fired {
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
	for !s.fired {
		s.addWaiter(p)
		p.park("waiting on signal ", s.name)
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
			if s.fired {
				return i
			}
		}
		// Register with all; first to fire wakes us. Waking is level-
		// triggered (the loop above rechecks), and registration is
		// deduplicated, so stale entries cost one wake at most.
		for _, s := range sigs {
			s.addWaiter(p)
		}
		p.park("waiting on any of ", sigs[0].name)
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

// InitWakeup readies w, typically a field of its owner, with no fires. The
// name appears in deadlock reports.
func (e *Engine) InitWakeup(w *Wakeup, name string) {
	*w = Wakeup{}
	e.InitSignal(&w.sig, name)
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
	w.sig.fired = false
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
	state, obj := "waiting on signal ", w.sig.name
	if len(sigs) > 0 {
		state, obj = "waiting on any of ", sigs[0].name
	}
	for w.count == seen {
		for _, s := range sigs {
			if s.fired {
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
	name      string
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
func (e *Engine) NewServer(name string) *Server {
	return &Server{eng: e, name: name}
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
