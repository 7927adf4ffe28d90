package sim

// LaneEntry is the link a Lane queues. Embed one in the pooled state that
// owns a scheduled continuation (one per in-flight chunk, say), so queueing
// on a lane allocates nothing. An entry may be pending in at most one lane
// at a time; it is free again once its event has been dispatched (for a
// series, once its last firing has been dispatched).
type LaneEntry struct {
	at     Time
	seq    uint64
	fn     func()
	next   *LaneEntry
	series func() (Time, bool) // set instead of fn on a Series entry
}

func (en *LaneEntry) pending() bool { return en.fn != nil || en.series != nil }

// Lane is an ordered event lane: an intrusive FIFO for a stream of events
// whose times arrive in nondecreasing order, such as a FIFO server's
// completions when its post-service latency is constant. Only the lane's
// head sits in the engine's heap, so a busy server with hundreds of chunks
// in flight costs the heap one entry instead of hundreds.
//
// A lane changes no event's key. Lane.At assigns the next seq exactly as
// Engine.At would, and entries of one lane are increasing in (at, seq), so
// the lane head is always the lane's minimum and the dispatch order is the
// same sorted order of keys the plain heap produces. A push earlier than
// the latest time the lane's tail will fire at, or at or before the
// current instant, falls back to Engine.At with the same key.
//
// One entry may stand for a whole series of events (see Series): it fires
// once per member and stays at the lane's head until the last one.
type Lane struct {
	eng        *Engine
	head, tail *LaneEntry
	tailAt     Time   // the latest time the tail entry fires at
	popFn      func() // bound once: the heap event standing for the head
}

func (e *Engine) newLane() *Lane {
	l := &Lane{eng: e}
	l.popFn = l.pop
	return l
}

// queues reports whether an entry first firing at t keeps the lane in order.
func (l *Lane) queues(t Time) bool {
	return t > l.eng.now && (l.tail == nil || t >= l.tailAt)
}

// At schedules fn at absolute time t, queueing it on en when t keeps the
// lane in order.
func (l *Lane) At(t Time, en *LaneEntry, fn func()) {
	e := l.eng
	if !l.queues(t) {
		e.At(t, fn)
		return
	}
	if en.pending() {
		panic("sim: lane entry already pending")
	}
	e.seq++
	en.at, en.seq, en.fn = t, e.seq, fn
	l.link(en, t)
}

// Series queues n events on the one entry en: they are the events n
// back-to-back At calls at nondecreasing times first = t_0 <= ... <=
// t_{n-1} = last would schedule, with the same keys. Series reserves their
// n seqs s..s+n-1 at once, so firing k has key (t_k, s+k). Each firing
// runs fn, which reports the time of the next firing, or false after the
// last. The entry stays at the lane's head between firings; a push behind
// it must not precede last, which Lane.At enforces.
//
// Series reports false, reserving nothing, when At would not queue an
// entry at first; schedule the events one by one then.
func (l *Lane) Series(first, last Time, n int, en *LaneEntry, fn func() (Time, bool)) bool {
	if !l.queues(first) {
		return false
	}
	if en.pending() {
		panic("sim: lane entry already pending")
	}
	e := l.eng
	en.at, en.seq, en.series = first, e.seq+1, fn
	e.seq += uint64(n)
	l.link(en, last)
	return true
}

// link appends en, whose last firing is at last, to the lane.
func (l *Lane) link(en *LaneEntry, last Time) {
	if l.tail == nil {
		l.head = en
		l.eng.events.push(event{at: en.at, seq: en.seq, fn: l.popFn})
	} else {
		l.tail.next = en
	}
	l.tail, l.tailAt = en, last
}

// pop dispatches the lane head. A series head runs its firing and, if
// another follows, stays at the head under the next reserved seq.
// Otherwise pop unlinks the head, hands the heap slot to the successor
// under the successor's own key, and runs the head's fn; the entry is free
// before fn runs, so fn may queue it again.
func (l *Lane) pop() {
	en := l.head
	if en.series != nil {
		if t, more := en.series(); more {
			if t < en.at {
				panic("sim: lane series went back in time")
			}
			en.at = t
			en.seq++
			l.eng.events.push(event{at: t, seq: en.seq, fn: l.popFn})
			return
		}
		en.series = nil
	}
	l.head = en.next
	if l.head == nil {
		l.tail = nil
	} else {
		l.eng.events.push(event{at: l.head.at, seq: l.head.seq, fn: l.popFn})
	}
	fn := en.fn
	en.fn, en.next = nil, nil
	if fn != nil {
		fn()
	}
}
