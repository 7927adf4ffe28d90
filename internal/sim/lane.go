package sim

// LaneEntry is the link a Lane queues. Embed one in the pooled state that
// owns a scheduled continuation (one per in-flight chunk, say), so queueing
// on a lane allocates nothing. An entry may be pending in at most one lane
// at a time; it is free again once its event has been dispatched.
type LaneEntry struct {
	at   Time
	seq  uint64
	fn   func()
	next *LaneEntry
}

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
// the lane's tail, or at or before the current instant, falls back to
// Engine.At with the same key.
type Lane struct {
	eng        *Engine
	head, tail *LaneEntry
	popFn      func() // bound once: the heap event standing for the head
}

func (e *Engine) newLane() *Lane {
	l := &Lane{eng: e}
	l.popFn = l.pop
	return l
}

// At schedules fn at absolute time t, queueing it on en when t keeps the
// lane in order.
func (l *Lane) At(t Time, en *LaneEntry, fn func()) {
	e := l.eng
	if t <= e.now || (l.tail != nil && t < l.tail.at) {
		e.At(t, fn)
		return
	}
	if en.fn != nil {
		panic("sim: lane entry already pending")
	}
	e.seq++
	en.at, en.seq, en.fn = t, e.seq, fn
	if l.tail == nil {
		l.head = en
		e.events.push(event{at: t, seq: en.seq, fn: l.popFn})
	} else {
		l.tail.next = en
	}
	l.tail = en
}

// pop dispatches the lane head: it unlinks the head, hands the heap slot
// to the successor under the successor's own key, and runs the head's fn.
// The entry is free before fn runs, so fn may queue it again.
func (l *Lane) pop() {
	en := l.head
	l.head = en.next
	if l.head == nil {
		l.tail = nil
	} else {
		l.eng.events.push(event{at: l.head.at, seq: l.head.seq, fn: l.popFn})
	}
	fn := en.fn
	en.fn, en.next = nil, nil
	fn()
}
