// Package match implements MPI two-sided message matching: an ordered
// posted-receive queue and an ordered unexpected-message queue with
// wildcard source/tag selection.
//
// Both network models share this structure but execute it in different
// places — which is the heart of the paper's architectural comparison:
// Quadrics Tports runs matching on the NIC's thread processor
// (internal/elan), while MVAPICH runs it on the host CPU inside MPI calls
// (internal/mpi's InfiniBand transport). The engine therefore reports how
// many queue entries each operation traversed, so callers can charge
// traversal time to the right processor at the right rate (the paper cites
// long queue traversal on a slow NIC processor as offload's downside).
package match

// Wildcards for posted receives. Incoming messages always carry concrete
// values.
const (
	AnySource = -1
	AnyTag    = -1
)

// Envelope identifies a message for matching purposes.
type Envelope struct {
	Src int // sending rank (concrete for arrivals; AnySource allowed in posts)
	Tag int // message tag (concrete for arrivals; AnyTag allowed in posts)
	Ctx int // communicator context id (always concrete)
}

// matches reports whether a posted receive envelope accepts an incoming
// message envelope.
func (post Envelope) matches(in Envelope) bool {
	if post.Ctx != in.Ctx {
		return false
	}
	if post.Src != AnySource && post.Src != in.Src {
		return false
	}
	if post.Tag != AnyTag && post.Tag != in.Tag {
		return false
	}
	return true
}

type entry struct {
	env  Envelope
	data interface{}
}

// Engine holds the two matching queues for one receiving context (one rank).
// It is plain data with no simulation state; callers sequence access.
type Engine struct {
	posted     []entry
	unexpected []entry

	// Peak queue depths, for scalability statistics.
	MaxPosted     int
	MaxUnexpected int
}

// PostRecv offers a receive. If an unexpected message matches, it is removed
// and returned with found=true. Otherwise the receive is appended to the
// posted queue. traversed is the number of unexpected-queue entries
// examined.
func (e *Engine) PostRecv(env Envelope, data interface{}) (msg interface{}, found bool, traversed int) {
	for i, u := range e.unexpected {
		traversed++
		if env.matches(u.env) {
			e.unexpected = append(e.unexpected[:i], e.unexpected[i+1:]...)
			return u.data, true, traversed
		}
	}
	e.posted = append(e.posted, entry{env, data})
	if len(e.posted) > e.MaxPosted {
		e.MaxPosted = len(e.posted)
	}
	return nil, false, traversed
}

// Arrive offers an incoming message. If a posted receive matches, it is
// removed and returned with found=true. Otherwise the message is appended
// to the unexpected queue. traversed is the number of posted-queue entries
// examined.
func (e *Engine) Arrive(env Envelope, data interface{}) (recv interface{}, found bool, traversed int) {
	if env.Src < 0 || env.Tag < 0 {
		panic("match: arrivals must carry concrete source and tag")
	}
	for i, p := range e.posted {
		traversed++
		if p.env.matches(env) {
			e.posted = append(e.posted[:i], e.posted[i+1:]...)
			return p.data, true, traversed
		}
	}
	e.unexpected = append(e.unexpected, entry{env, data})
	if len(e.unexpected) > e.MaxUnexpected {
		e.MaxUnexpected = len(e.unexpected)
	}
	return nil, false, traversed
}

// PostedLen reports the current posted-receive queue depth.
func (e *Engine) PostedLen() int { return len(e.posted) }

// UnexpectedLen reports the current unexpected-message queue depth.
func (e *Engine) UnexpectedLen() int { return len(e.unexpected) }

// CancelRecv removes a previously posted receive identified by its data
// value. It reports whether the post was still pending.
func (e *Engine) CancelRecv(data interface{}) bool {
	for i, p := range e.posted {
		if p.data == data {
			e.posted = append(e.posted[:i], e.posted[i+1:]...)
			return true
		}
	}
	return false
}

// Sequencer restores per-sender FIFO delivery order on top of a network
// that may reorder messages (adaptive routing sends packets of different
// messages over different spines). MPI's non-overtaking rule requires that
// matching observe sends from a given rank in program order. The zero
// value is an empty sequencer, ready to use.
type Sequencer struct {
	next []uint64 // per sender, grown on demand
	// pending holds the out-of-order arrivals per sender. It is made by
	// the first one, so a sequencer whose messages arrive in order never
	// builds it.
	pending map[int]map[uint64]interface{}
	held    int           // messages in pending, over all senders
	batch   []interface{} // Submit's result, reused by the next call
}

// NewSequencer returns an empty sequencer.
func NewSequencer() *Sequencer { return &Sequencer{} }

// Submit hands the sequencer message seq from the given sender and returns
// the (possibly empty) batch of messages now deliverable in order. Each
// sender's sequence must start at 0 and increment by 1 per message. The
// batch is valid until the next call, which reuses it, so a caller must not
// submit again while it iterates.
func (s *Sequencer) Submit(sender int, seq uint64, msg interface{}) []interface{} {
	if sender >= len(s.next) {
		s.next = append(s.next, make([]uint64, sender+1-len(s.next))...)
	}
	if seq != s.next[sender] {
		if s.pending == nil {
			s.pending = map[int]map[uint64]interface{}{}
		}
		p := s.pending[sender]
		if p == nil {
			p = map[uint64]interface{}{}
			s.pending[sender] = p
		}
		if _, dup := p[seq]; dup {
			panic("match: duplicate sequence number")
		}
		p[seq] = msg
		s.held++
		return nil
	}
	clear(s.batch)
	s.batch = append(s.batch[:0], msg)
	s.next[sender] = seq + 1
	for s.held > 0 {
		p := s.pending[sender]
		m, ok := p[s.next[sender]]
		if !ok {
			break
		}
		delete(p, s.next[sender])
		s.held--
		s.batch = append(s.batch, m)
		s.next[sender]++
	}
	return s.batch
}

// Pending reports the number of held-back out-of-order messages from the
// given sender.
func (s *Sequencer) Pending(sender int) int { return len(s.pending[sender]) }

// Released reports whether Submit has already returned message seq from
// the given sender in a batch.
func (s *Sequencer) Released(sender int, seq uint64) bool {
	return sender < len(s.next) && seq < s.next[sender]
}
