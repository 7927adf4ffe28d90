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
	"fmt"

	"repro/internal/ib"
	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/mpi"
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

// wireMsg is the software envelope riding on every RDMA write.
type wireMsg struct {
	kind    msgKind
	env     match.Envelope
	dstRank int
	seq     uint64 // matching-stream sequence (eager and RTS only)
	size    units.Bytes
	payload interface{}
	sstate  *sendState // rendezvous correlation (CTS/data)
	rstate  *recvState
	credits int  // piggybacked credit return
	channel bool // channel (send/recv) eager path, not RDMA fast path
}

type sendState struct {
	req  *mpi.Request
	rank *mpi.Rank
	dst  int
	size units.Bytes
	key  uint64
	msg  *wireMsg
}

type recvState struct {
	req *mpi.Request
	key uint64
}

// rankState is the per-rank host protocol state.
type rankState struct {
	engine  match.Engine
	seq     *match.Sequencer
	pending []*wireMsg // delivered, awaiting host processing

	credits    map[int]int // send credits toward each peer
	creditOwed map[int]int // processed eager arrivals not yet acked
	sendSeq    map[int]uint64

	// Statistics.
	EagerSends, RndvSends, Unexpected uint64
}

// Transport implements mpi.Transport over an InfiniBand network.
type Transport struct {
	params Params
	net    *ib.Network
	w      *mpi.World
	states []*rankState

	mEager, mRndv, mUnexpected *metrics.Counter // nil-safe; world-wide totals
}

// New wraps an IB network as an MPI transport.
func New(net *ib.Network, params Params) *Transport {
	return &Transport{net: net, params: params}
}

// Name implements mpi.Transport.
func (t *Transport) Name() string { return "ib" }

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
	st := t.states[rank]
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
	reg := w.Engine().Metrics()
	t.mEager = reg.Counter("mvib.eager_sends")
	t.mRndv = reg.Counter("mvib.rndv_sends")
	t.mUnexpected = reg.Counter("mvib.unexpected")
	t.states = make([]*rankState, w.Size())
	for i := range t.states {
		t.states[i] = &rankState{
			seq:        match.NewSequencer(),
			credits:    map[int]int{},
			creditOwed: map[int]int{},
			sendSeq:    map[int]uint64{},
		}
		for peer := 0; peer < w.Size(); peer++ {
			if w.NodeOf(peer) != w.NodeOf(i) {
				t.states[i].credits[peer] = t.params.EagerSlots
			}
		}
	}
	cfg := w.Config()
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
	reg.Gauge("mvib.eager_memory_per_rank_bytes").SetMax(float64(t.EagerMemoryPerRank()))
}

// deliver runs in event context when an RDMA write has been placed in host
// memory: queue it for the destination rank and wake it. NO protocol
// processing happens here — that is the whole point.
func (t *Transport) deliver(d ib.Delivery) {
	msg := d.Imm.(*wireMsg)
	st := t.states[msg.dstRank]
	st.pending = append(st.pending, msg)
	t.w.Rank(msg.dstRank).Kick()
}

// NetSend implements mpi.Transport.
func (t *Transport) NetSend(r *mpi.Rank, dst, tag, ctx int, size units.Bytes, payload interface{}, key uint64) *mpi.Request {
	st := t.states[r.ID()]
	hca := t.net.HCA(r.NodeID())
	req := mpi.NewRequest(r.Engine(), fmt.Sprintf("ib send %d->%d", r.ID(), dst), false)
	env := match.Envelope{Src: r.ID(), Tag: tag, Ctx: ctx}

	if size <= t.params.EagerThreshold {
		st.EagerSends++
		t.mEager.Inc()
		// Flow control: block (making progress) until a slot is free.
		for st.credits[dst] == 0 {
			sig := r.Incoming()
			t.Progress(r)
			if st.credits[dst] > 0 {
				break
			}
			r.Proc().Wait(sig)
		}
		st.credits[dst]--
		msg := &wireMsg{kind: kindEager, env: env, dstRank: dst, seq: st.sendSeq[dst],
			size: size, payload: payload, credits: t.takeOwed(st, dst),
			channel: size > t.params.RDMAEagerMax}
		st.sendSeq[dst]++
		// Stage the payload into the pre-registered slot.
		r.HostCopy(size)
		if msg.channel {
			r.Proc().Sleep(t.params.ChanExtraSend)
		}
		hca.RDMAWrite(r.Proc(), t.w.NodeOf(dst), size+t.params.HeaderBytes, msg)
		// Buffer is reusable as soon as it has been staged.
		req.Complete(r.ID(), tag, size, payload)
		return req
	}

	st.RndvSends++
	t.mRndv.Inc()
	// Rendezvous: pin the send buffer, then RTS.
	hca.Register(r.Proc(), key, size)
	ss := &sendState{req: req, rank: r, dst: dst, size: size, key: key}
	msg := &wireMsg{kind: kindRTS, env: env, dstRank: dst, seq: st.sendSeq[dst],
		size: size, payload: payload, sstate: ss, credits: t.takeOwed(st, dst)}
	ss.msg = msg
	st.sendSeq[dst]++
	hca.RDMAWrite(r.Proc(), t.w.NodeOf(dst), t.params.HeaderBytes, msg)
	return req
}

// takeOwed collects the piggyback credit field for a message to dst.
func (t *Transport) takeOwed(st *rankState, dst int) int {
	owed := st.creditOwed[dst]
	st.creditOwed[dst] = 0
	return owed
}

// NetRecv implements mpi.Transport.
func (t *Transport) NetRecv(r *mpi.Rank, src, tag, ctx int, key uint64) *mpi.Request {
	st := t.states[r.ID()]
	req := mpi.NewRequest(r.Engine(), fmt.Sprintf("ib recv %d<-%d", r.ID(), src), true)
	rs := &recvState{req: req, key: key}
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
		t.matchedUnexpected(r, st, rs, data.(*wireMsg))
	}
	return req
}

// matchedUnexpected completes the receive side for a message that arrived
// before its receive was posted.
func (t *Transport) matchedUnexpected(r *mpi.Rank, st *rankState, rs *recvState, msg *wireMsg) {
	switch msg.kind {
	case kindEager:
		// Payload was staged to a temp buffer when it was processed;
		// copy it out to the user buffer now.
		r.HostCopy(msg.size)
		rs.req.Complete(msg.env.Src, msg.env.Tag, msg.size, msg.payload)
	case kindRTS:
		t.sendCTS(r, rs, msg)
	default:
		panic("mvib: non-matchable message in unexpected queue")
	}
}

// sendCTS registers the receive buffer and answers the RTS: with the
// classic protocol a clear-to-send goes back for the sender to push; with
// ReadRendezvous the receiver pulls the payload itself.
func (t *Transport) sendCTS(r *mpi.Rank, rs *recvState, rts *wireMsg) {
	hca := t.net.HCA(r.NodeID())
	hca.Register(r.Proc(), rs.key, rts.size)
	srcNode := t.w.NodeOf(rts.env.Src)
	if t.params.ReadRendezvous {
		note := &wireMsg{kind: kindReadDone, env: rts.env, dstRank: r.ID(),
			size: rts.size, payload: rts.payload, sstate: rts.sstate, rstate: rs}
		hca.RDMARead(r.Proc(), srcNode, rts.size, note)
		return
	}
	cts := &wireMsg{kind: kindCTS, dstRank: rts.env.Src, size: rts.size,
		sstate: rts.sstate, rstate: rs}
	hca.RDMAWrite(r.Proc(), srcNode, t.params.HeaderBytes, cts)
}

// Progress implements mpi.Transport: poll the virtual CQ and process every
// delivered message, paying host costs in the calling rank's time. This is
// the only place eager copies, matching, CTS generation, and rendezvous
// data pushes happen — no MPI call, no progress.
func (t *Transport) Progress(r *mpi.Rank) {
	st := t.states[r.ID()]
	for len(st.pending) > 0 {
		msg := st.pending[0]
		st.pending = st.pending[1:]
		r.Proc().Sleep(t.params.ProcessArrival)
		if msg.credits > 0 {
			st.credits[msg.env.Src] += msg.credits
		}
		switch msg.kind {
		case kindEager, kindRTS:
			for _, m := range st.seq.Submit(msg.env.Src, msg.seq, msg) {
				t.hostMatch(r, st, m.(*wireMsg))
			}
		case kindCTS:
			t.pushData(r, msg)
		case kindData:
			// RDMA placed the payload straight into the user buffer;
			// arrival is the FIN.
			rs := msg.rstate
			rs.req.Complete(msg.env.Src, msg.env.Tag, msg.size, msg.payload)
		case kindCredit:
			st.credits[msg.env.Src] += msg.credits
		case kindReadDone:
			// RGET: the pulled payload is in the user buffer; finish the
			// receive and release the sender with a FIN.
			rs := msg.rstate
			rs.req.Complete(msg.env.Src, msg.env.Tag, msg.size, msg.payload)
			fin := &wireMsg{kind: kindFin, env: msg.env, dstRank: msg.env.Src,
				sstate: msg.sstate}
			t.net.HCA(r.NodeID()).RDMAWrite(r.Proc(), t.w.NodeOf(msg.env.Src),
				t.params.HeaderBytes, fin)
		case kindFin:
			ss := msg.sstate
			ss.req.Complete(ss.rank.ID(), msg.env.Tag, ss.size, ss.msg.payload)
		}
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
		t.mUnexpected.Inc()
		if msg.kind == kindEager {
			// Drain the slot to a temp buffer so the slot can recycle.
			r.HostCopy(msg.size)
		}
		return
	}
	rs := data.(*recvState)
	switch msg.kind {
	case kindEager:
		r.HostCopy(msg.size)
		rs.req.Complete(msg.env.Src, msg.env.Tag, msg.size, msg.payload)
	case kindRTS:
		t.sendCTS(r, rs, msg)
	}
}

// ackEager accounts a consumed eager slot and returns credits explicitly
// once half the ring is owed (piggybacking covers the rest).
func (t *Transport) ackEager(r *mpi.Rank, st *rankState, src int) {
	st.creditOwed[src]++
	if st.creditOwed[src] >= t.params.EagerSlots/2 {
		msg := &wireMsg{kind: kindCredit, env: match.Envelope{Src: r.ID()},
			dstRank: src, credits: st.creditOwed[src]}
		st.creditOwed[src] = 0
		t.net.HCA(r.NodeID()).RDMAWrite(r.Proc(), t.w.NodeOf(src), t.params.HeaderBytes, msg)
	}
}

// pushData answers a CTS: RDMA-write the payload into the receiver's
// registered buffer. Runs in the SENDER's MPI-call context — if the sender
// is off computing, the CTS waits, which is the overlap limitation the
// paper highlights (Section 3.3.5).
func (t *Transport) pushData(r *mpi.Rank, cts *wireMsg) {
	ss := cts.sstate
	hca := t.net.HCA(r.NodeID())
	data := &wireMsg{kind: kindData, env: ss.msg.env, dstRank: ss.dst,
		size: ss.size, payload: ss.msg.payload, rstate: cts.rstate}
	local := hca.RDMAWrite(r.Proc(), t.w.NodeOf(ss.dst), ss.size+t.params.HeaderBytes, data)
	local.OnFire(func() {
		ss.req.Complete(ss.rank.ID(), ss.msg.env.Tag, ss.size, ss.msg.payload)
	})
}
