// Package mvib is the MVAPICH-style MPI transport over the InfiniBand
// verbs model (internal/ib), reproducing the protocol structure of MVAPICH
// 0.9.2 — the implementation the paper measured.
//
// Protocol summary (all of it HOST software, advanced only inside MPI
// calls):
//
//   - Eager (size <= EagerThreshold): the sender copies the payload into a
//     pre-registered per-peer RDMA slot and RDMA-writes it into the
//     matching slot ring on the receiver. Slots are flow-controlled by
//     credits; credits return piggybacked on reverse traffic or via
//     explicit credit messages once half the ring is consumed. The ring is
//     why the paper notes MVAPICH's buffer memory grows linearly with the
//     number of processes — and why the eager threshold is constrained.
//   - Rendezvous (larger): sender registers the buffer (pin-down cache),
//     sends RTS; the receiver matches it, registers its buffer, returns
//     CTS; the sender RDMA-writes the payload straight into the user
//     buffer and the write's arrival doubles as FIN.
//   - No independent progress: arrivals pile up at the HCA until the
//     destination process enters an MPI call and polls. Both directions of
//     the rendezvous handshake stall on their host's next MPI call.
package mvib

import (
	"repro/internal/ib"
	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/units"
)

// Params defines the MPI-over-verbs protocol parameters.
type Params struct {
	// RDMAEagerMax is the largest payload taking the RDMA fast path
	// (polled per-peer slot rings). The paper observes the latency step
	// between 1 KB and 2 KB, where messages fall off this path.
	RDMAEagerMax units.Bytes
	// EagerThreshold is the largest eager payload overall; between
	// RDMAEagerMax and this, messages use the channel (send/recv) eager
	// path, which costs extra host and HCA work per message.
	EagerThreshold units.Bytes
	// EagerSlots is the per-peer, per-direction RDMA slot-ring depth
	// (initial credit count).
	EagerSlots int
	// HeaderBytes is the wire overhead of every MPI message.
	HeaderBytes units.Bytes
	// ProcessArrival is host CPU time to discover and decode one arrival
	// (CQ poll + header inspection).
	ProcessArrival units.Duration
	// MatchPerEntry is host CPU time per matching-queue entry traversed.
	MatchPerEntry units.Duration
	// ChanExtraSend and ChanExtraRecv are the additional per-message
	// costs of the channel eager path (recv WQE replenish, completion
	// handling on both queues).
	ChanExtraSend units.Duration
	ChanExtraRecv units.Duration
	// ReadRendezvous switches the rendezvous protocol from sender-push
	// (RTS -> CTS -> RDMA write, both hosts in the loop) to receiver-pull
	// (RTS -> RDMA read, "RGET"): once the receiver matches the RTS it
	// pulls the payload itself, so the transfer no longer waits for the
	// SENDER's next MPI call. MVAPICH adopted this after the paper's era;
	// it is off by default to match MVAPICH 0.9.2.
	ReadRendezvous bool
}

// DefaultParams returns MVAPICH-0.9.2-era protocol parameters.
func DefaultParams() Params {
	return Params{
		RDMAEagerMax:   1 * units.KiB,
		EagerThreshold: 8 * units.KiB,
		EagerSlots:     32,
		HeaderBytes:    48,
		ProcessArrival: 300 * units.Nanosecond,
		MatchPerEntry:  40 * units.Nanosecond,
		ChanExtraSend:  1200 * units.Nanosecond,
		ChanExtraRecv:  1500 * units.Nanosecond,
	}
}

type msgKind uint8

const (
	kindEager msgKind = iota
	kindRTS
	kindCTS
	kindData // rendezvous payload; its arrival is the FIN
	kindCredit
	kindReadDone // RGET: local notification that the pulled payload landed
	kindFin      // RGET: tells the sender its buffer is free
)

// wireMsg is the software envelope riding on every RDMA write. It is
// pooled on the transport and released once the receiving rank has
// consumed it (see release).
type wireMsg struct {
	live    sim.Live
	kind    msgKind
	env     match.Envelope
	dstRank int
	seq     uint64 // matching-stream sequence (eager and RTS only)
	size    units.Bytes
	payload interface{}
	sstate  *sendState // rendezvous correlation (CTS/data)
	rstate  *recvState
	credits int32 // piggybacked credit return
	channel bool  // channel (send/recv) eager path, not RDMA fast path
}

// sendState is a rendezvous send awaiting its handshake. It is pooled on
// the transport and released when the send completes: in doneFn, bound
// once, after the payload's RDMA write, or on the RGET FIN.
type sendState struct {
	t       *Transport
	live    sim.Live
	req     *mpi.Request
	rank    *mpi.Rank
	dst     int
	size    units.Bytes
	env     match.Envelope
	payload interface{}
	doneFn  func()
}

// recvState is a posted receive. It is pooled on the transport and
// released when its request completes.
type recvState struct {
	live sim.Live
	req  *mpi.Request
	key  uint64
}

// rankState is the per-rank host protocol state.
type rankState struct {
	engine  match.Engine
	seq     match.Sequencer
	pending []*wireMsg // pending[head:] are delivered, awaiting host processing
	head    int

	// peers holds the state toward each peer rank, sized at Attach.
	peers []peer

	// Statistics.
	EagerSends, RndvSends, Unexpected uint64
}

// peer is a rank's protocol state toward one peer rank.
type peer struct {
	credits    int32 // send credits toward the peer
	creditOwed int32 // processed eager arrivals not yet acked
	sendSeq    uint64
}

// Transport implements mpi.Transport over an InfiniBand network.
type Transport struct {
	params Params
	net    *ib.Network
	w      *mpi.World
	states []rankState

	// Free lists of the per-message protocol state.
	freeMsgs  sim.FreeList[wireMsg]
	freeSends sim.FreeList[sendState]
	freeRecvs sim.FreeList[recvState]

	// folded holds the per-rank counts the last FlushMetrics saw.
	folded [3]uint64
}

// New wraps an IB network as an MPI transport.
func New(net *ib.Network, params Params) *Transport {
	return &Transport{net: net, params: params}
}

// Network exposes the underlying IB model (for statistics).
func (t *Transport) Network() *ib.Network { return t.net }

// Params returns the protocol parameters.
func (t *Transport) Params() Params { return t.params }

// Stats reports per-rank protocol counters.
type Stats struct {
	EagerSends, RndvSends, Unexpected uint64
	MaxPosted, MaxUnexpected          int
}

// RankStats returns the protocol counters of a rank.
func (t *Transport) RankStats(rank int) Stats {
	st := &t.states[rank]
	return Stats{
		EagerSends:    st.EagerSends,
		RndvSends:     st.RndvSends,
		Unexpected:    st.Unexpected,
		MaxPosted:     st.engine.MaxPosted,
		MaxUnexpected: st.engine.MaxUnexpected,
	}
}

// EagerMemoryPerRank reports the registered eager-ring memory each rank
// dedicates to peers: the linear-in-process-count growth the paper
// discusses when explaining why the eager threshold cannot simply be
// raised.
func (t *Transport) EagerMemoryPerRank() units.Bytes {
	peers := units.Bytes(t.w.Size() - 1)
	slot := t.params.EagerThreshold + t.params.HeaderBytes
	return peers * units.Bytes(t.params.EagerSlots) * slot * 2 // both directions
}

// Attach implements mpi.Transport: connect queue pairs to every remote
// peer (MPI_Init-time work; wall time not charged, memory counted) and
// install the delivery handler on every HCA.
func (t *Transport) Attach(w *mpi.World) {
	t.w = w
	cfg := w.Config()
	n := w.Size()
	t.states = make([]rankState, n)
	for i := range t.states {
		// A full slot ring toward every peer, except those on the rank's
		// own node, which the shared-memory channel serves.
		peers := make([]peer, n)
		for p := range peers {
			peers[p].credits = int32(t.params.EagerSlots)
		}
		lo := w.NodeOf(i) * cfg.PPN
		clear(peers[lo:min(lo+cfg.PPN, n)])
		t.states[i].peers = peers
	}
	nodes := cfg.NodesFor()
	for n := 0; n < nodes; n++ {
		n := n
		hca := t.net.HCA(n)
		hca.SetHandler(func(d ib.Delivery) { t.deliver(d) })
		// Reliable connections to every other node's HCA (MVAPICH 0.9.2
		// connected all pairs eagerly at startup).
		for m := 0; m < nodes; m++ {
			if m != n {
				hca.ConnectNoCost(m)
			}
		}
	}
	reg := w.Engine().Metrics()
	reg.Gauge("mvib.eager_memory_per_rank_bytes").SetMax(float64(t.EagerMemoryPerRank()))
	t.FlushMetrics()
}

// FlushMetrics adds to the engine's registry the eager sends, rendezvous
// sends and unexpected arrivals of every rank since the last flush. No-op
// without a registry.
func (t *Transport) FlushMetrics() {
	reg := t.w.Engine().Metrics()
	if reg == nil {
		return
	}
	var eager, rndv, unexpected uint64
	for i := range t.states {
		st := &t.states[i]
		eager += st.EagerSends
		rndv += st.RndvSends
		unexpected += st.Unexpected
	}
	reg.Fold(t.folded[:],
		metrics.Tally{Name: "mvib.eager_sends", Total: eager},
		metrics.Tally{Name: "mvib.rndv_sends", Total: rndv},
		metrics.Tally{Name: "mvib.unexpected", Total: unexpected})
}

// deliver runs in event context when an RDMA write has been placed in host
// memory: queue it for the destination rank and wake it. NO protocol
// processing happens here — that is the whole point.
func (t *Transport) deliver(d ib.Delivery) {
	msg := d.Imm.(*wireMsg)
	st := &t.states[msg.dstRank]
	st.pending = append(st.pending, msg)
	t.w.Rank(msg.dstRank).Kick()
}

// NetSend implements mpi.Transport.
func (t *Transport) NetSend(r *mpi.Rank, dst, tag, ctx int, size units.Bytes, payload interface{}, key uint64) *mpi.Request {
	st := &t.states[r.ID()]
	hca := t.net.HCA(r.NodeID())
	req := r.NewRequest("ib send %d->%d", dst, false)
	env := match.Envelope{Src: r.ID(), Tag: tag, Ctx: ctx}

	if size <= t.params.EagerThreshold {
		st.EagerSends++
		// Flow control: block (making progress) until a slot is free.
		p := &st.peers[dst]
		for p.credits == 0 {
			seen := r.Incoming()
			t.Progress(r)
			if p.credits > 0 {
				break
			}
			r.WaitIncoming(seen)
		}
		p.credits--
		msg := t.newMsg(wireMsg{kind: kindEager, env: env, dstRank: dst, seq: p.sendSeq,
			size: size, payload: payload, credits: p.takeOwed(),
			channel: size > t.params.RDMAEagerMax})
		p.sendSeq++
		// Stage the payload into the pre-registered slot.
		r.HostCopy(size)
		if msg.channel {
			r.Proc().Sleep(t.params.ChanExtraSend)
		}
		hca.RDMAWriteThen(r.Proc(), t.w.NodeOf(dst), size+t.params.HeaderBytes, msg, nil)
		// Buffer is reusable as soon as it has been staged.
		req.Complete(dst, tag, size, payload)
		return req
	}

	st.RndvSends++
	// Rendezvous: pin the send buffer, then RTS.
	hca.Register(r.Proc(), key, size)
	ss := t.freeSends.Get()
	if ss == nil {
		ss = &sendState{t: t}
		ss.doneFn = ss.done
	}
	ss.live.Acquire()
	ss.req, ss.rank, ss.dst, ss.size, ss.env, ss.payload = req, r, dst, size, env, payload
	p := &st.peers[dst]
	msg := t.newMsg(wireMsg{kind: kindRTS, env: env, dstRank: dst, seq: p.sendSeq,
		size: size, payload: payload, sstate: ss, credits: p.takeOwed()})
	p.sendSeq++
	hca.RDMAWriteThen(r.Proc(), t.w.NodeOf(dst), t.params.HeaderBytes, msg, nil)
	return req
}

// newMsg returns a pooled copy of m.
func (t *Transport) newMsg(m wireMsg) *wireMsg {
	msg := t.freeMsgs.Get()
	if msg == nil {
		msg = &wireMsg{}
	}
	*msg = m
	msg.live.Acquire()
	return msg
}

// release returns msg, consumed, to the pool: its one release point. An
// eager or RTS message is consumed when it matches a receive, any other
// kind when the rank's progress engine has processed it.
func (t *Transport) release(msg *wireMsg) {
	msg.payload, msg.sstate, msg.rstate = nil, nil, nil
	t.freeMsgs.Put(msg, &msg.live)
}

// done completes a rendezvous send and releases its state: its one
// release point.
func (ss *sendState) done() {
	ss.live.Check(ss)
	ss.req.Complete(ss.dst, ss.env.Tag, ss.size, ss.payload)
	ss.req, ss.rank, ss.payload = nil, nil, nil
	ss.t.freeSends.Put(ss, &ss.live)
}

// finish completes a posted receive and releases its state: its one
// release point.
func (t *Transport) finish(rs *recvState, msg *wireMsg) {
	rs.req.Complete(msg.env.Src, msg.env.Tag, msg.size, msg.payload)
	rs.req = nil
	t.freeRecvs.Put(rs, &rs.live)
}

// takeOwed collects the piggyback credit field for a message to the peer.
func (p *peer) takeOwed() int32 {
	owed := p.creditOwed
	p.creditOwed = 0
	return owed
}

// NetRecv implements mpi.Transport.
func (t *Transport) NetRecv(r *mpi.Rank, src, tag, ctx int, key uint64) *mpi.Request {
	st := &t.states[r.ID()]
	req := r.NewRequest("ib recv %d<-%d", src, true)
	rs := t.freeRecvs.Get()
	if rs == nil {
		rs = &recvState{}
	}
	rs.live.Acquire()
	rs.req, rs.key = req, key
	// Drain anything already delivered, then post.
	t.Progress(r)
	env := match.Envelope{Src: src, Tag: tag, Ctx: ctx}
	if src == mpi.AnySource {
		env.Src = match.AnySource
	}
	if tag == mpi.AnyTag {
		env.Tag = match.AnyTag
	}
	data, found, traversed := st.engine.PostRecv(env, rs)
	r.Proc().Sleep(units.Duration(traversed) * t.params.MatchPerEntry)
	if found {
		t.matched(r, rs, data.(*wireMsg))
	}
	return req
}

// matched runs the receive side of an eager or RTS message once it has
// met its receive, on arrival or from the unexpected queue, and releases
// the message.
func (t *Transport) matched(r *mpi.Rank, rs *recvState, msg *wireMsg) {
	switch msg.kind {
	case kindEager:
		// The payload is copied out of the slot (or, for a message that
		// arrived unexpected, the temp buffer) into the user buffer.
		r.HostCopy(msg.size)
		t.finish(rs, msg)
	case kindRTS:
		t.sendCTS(r, rs, msg)
	default:
		panic("mvib: non-matchable message in unexpected queue")
	}
	t.release(msg)
}

// sendCTS registers the receive buffer and answers the RTS: with the
// classic protocol a clear-to-send goes back for the sender to push; with
// ReadRendezvous the receiver pulls the payload itself.
func (t *Transport) sendCTS(r *mpi.Rank, rs *recvState, rts *wireMsg) {
	hca := t.net.HCA(r.NodeID())
	hca.Register(r.Proc(), rs.key, rts.size)
	srcNode := t.w.NodeOf(rts.env.Src)
	if t.params.ReadRendezvous {
		note := t.newMsg(wireMsg{kind: kindReadDone, env: rts.env, dstRank: r.ID(),
			size: rts.size, payload: rts.payload, sstate: rts.sstate, rstate: rs})
		hca.RDMAReadThen(r.Proc(), srcNode, rts.size, note, nil)
		return
	}
	cts := t.newMsg(wireMsg{kind: kindCTS, dstRank: rts.env.Src, size: rts.size,
		sstate: rts.sstate, rstate: rs})
	hca.RDMAWriteThen(r.Proc(), srcNode, t.params.HeaderBytes, cts, nil)
}

// Progress implements mpi.Transport: poll the virtual CQ and process every
// delivered message, paying host costs in the calling rank's time. This is
// the only place eager copies, matching, CTS generation, and rendezvous
// data pushes happen — no MPI call, no progress.
func (t *Transport) Progress(r *mpi.Rank) {
	st := &t.states[r.ID()]
	for st.head < len(st.pending) {
		msg := st.pending[st.head]
		st.pending[st.head] = nil
		if st.head++; st.head == len(st.pending) {
			st.pending, st.head = st.pending[:0], 0 // drained: reuse the buffer
		}
		r.Proc().Sleep(t.params.ProcessArrival)
		if msg.credits > 0 {
			st.peers[msg.env.Src].credits += msg.credits
		}
		switch msg.kind {
		case kindEager, kindRTS:
			// The sequencer's batch is reused by its next Submit, which
			// only this loop makes: hostMatch never reaches Progress.
			for _, m := range st.seq.Submit(msg.env.Src, msg.seq, msg) {
				t.hostMatch(r, st, m.(*wireMsg))
			}
			continue // released when matched
		case kindCTS:
			t.pushData(r, msg)
		case kindData:
			// RDMA placed the payload straight into the user buffer;
			// arrival is the FIN.
			t.finish(msg.rstate, msg)
		case kindCredit:
			st.peers[msg.env.Src].credits += msg.credits
		case kindReadDone:
			// RGET: the pulled payload is in the user buffer; finish the
			// receive and release the sender with a FIN.
			t.finish(msg.rstate, msg)
			fin := t.newMsg(wireMsg{kind: kindFin, env: msg.env, dstRank: msg.env.Src,
				sstate: msg.sstate})
			t.net.HCA(r.NodeID()).RDMAWriteThen(r.Proc(), t.w.NodeOf(msg.env.Src),
				t.params.HeaderBytes, fin, nil)
		case kindFin:
			msg.sstate.done()
		}
		t.release(msg)
	}
}

// hostMatch runs tag matching on the host for an in-order eager or RTS
// message.
func (t *Transport) hostMatch(r *mpi.Rank, st *rankState, msg *wireMsg) {
	data, found, traversed := st.engine.Arrive(msg.env, msg)
	r.Proc().Sleep(units.Duration(traversed) * t.params.MatchPerEntry)
	if msg.channel {
		r.Proc().Sleep(t.params.ChanExtraRecv)
	}
	if msg.kind == kindEager {
		defer t.ackEager(r, st, msg.env.Src)
	}
	if !found {
		st.Unexpected++
		if msg.kind == kindEager {
			// Drain the slot to a temp buffer so the slot can recycle.
			r.HostCopy(msg.size)
		}
		return
	}
	t.matched(r, data.(*recvState), msg)
}

// ackEager accounts a consumed eager slot and returns credits explicitly
// once half the ring is owed (piggybacking covers the rest).
func (t *Transport) ackEager(r *mpi.Rank, st *rankState, src int) {
	p := &st.peers[src]
	p.creditOwed++
	if p.creditOwed >= int32(t.params.EagerSlots/2) {
		msg := t.newMsg(wireMsg{kind: kindCredit, env: match.Envelope{Src: r.ID()},
			dstRank: src, credits: p.takeOwed()})
		t.net.HCA(r.NodeID()).RDMAWriteThen(r.Proc(), t.w.NodeOf(src), t.params.HeaderBytes, msg, nil)
	}
}

// pushData answers a CTS: RDMA-write the payload into the receiver's
// registered buffer. Runs in the SENDER's MPI-call context — if the sender
// is off computing, the CTS waits, which is the overlap limitation the
// paper highlights (Section 3.3.5).
func (t *Transport) pushData(r *mpi.Rank, cts *wireMsg) {
	ss := cts.sstate
	hca := t.net.HCA(r.NodeID())
	data := t.newMsg(wireMsg{kind: kindData, env: ss.env, dstRank: ss.dst,
		size: ss.size, payload: ss.payload, rstate: cts.rstate})
	hca.RDMAWriteThen(r.Proc(), t.w.NodeOf(ss.dst), ss.size+t.params.HeaderBytes, data, ss.doneFn)
}
