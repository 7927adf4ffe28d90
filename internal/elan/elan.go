// Package elan models a Quadrics QsNetII Elan-4 network interface at the
// Tports (tagged ports) level: two-sided tagged message passing executed by
// a thread processor on the NIC.
//
// The model captures the architectural properties the paper's Section 3
// credits for Quadrics' scaling behaviour:
//
//   - Connectionless: no per-peer setup, no per-peer state growth.
//   - No registration: the Elan MMU translates host virtual addresses, so
//     transfers touch arbitrary user memory at no host cost.
//   - Offload: MPI tag matching runs on the NIC thread (a FIFO server in
//     this model), charging per-queue-entry traversal time to the NIC —
//     including the downside the paper cites: long queues traverse slowly
//     on the embedded processor.
//   - Independent progress: the entire eager and rendezvous protocol is
//     NIC-to-NIC. A host process that is busy computing neither delays its
//     own receives nor its peers' rendezvous handshakes.
//
// Large messages use a NIC-driven rendezvous: the envelope travels alone;
// when the receiving NIC matches it, it returns a clear-to-send and the
// source NIC DMAs the payload straight into the destination user buffer.
// Small messages travel eagerly with their envelope; if unmatched on
// arrival they are buffered in system memory and copied to the user buffer
// when the receive is finally posted.
package elan

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/units"
)

// Params defines Elan-4 NIC timing parameters.
type Params struct {
	// TxPostOverhead is host CPU time to hand a send command to the NIC
	// (programmed I/O of a command descriptor).
	TxPostOverhead units.Duration
	// RxPostOverhead is host CPU time to post a receive descriptor.
	RxPostOverhead units.Duration
	// NICProcess is the latency a protocol event spends in the NIC
	// (envelope processing, CTS generation, DMA setup).
	NICProcess units.Duration
	// NICOccupancy is the pipeline occupancy per event: the Elan-4's
	// STEN/DMA/thread engines overlap successive messages, so sustained
	// message rate is limited by occupancy, not by per-event latency.
	NICOccupancy units.Duration
	// MatchPerEntry is NIC-thread time per matching-queue entry examined.
	MatchPerEntry units.Duration
	// EagerThreshold: messages at or below travel with their envelope;
	// larger messages use NIC-to-NIC rendezvous.
	EagerThreshold units.Bytes
	// EnvelopeBytes is the wire size of a Tports envelope.
	EnvelopeBytes units.Bytes
	// UnexpectedCopyRate is the local DMA rate for draining an
	// unexpectedly-arrived eager message from the system buffer into the
	// user buffer.
	UnexpectedCopyRate units.Rate
	// UnexpectedCopyBase is the fixed cost of that drain.
	UnexpectedCopyBase units.Duration
}

// DefaultParams returns parameters calibrated for a QM500 adapter; see
// internal/platform for calibration anchors.
func DefaultParams() Params {
	return Params{
		TxPostOverhead:     150 * units.Nanosecond,
		RxPostOverhead:     150 * units.Nanosecond,
		NICProcess:         700 * units.Nanosecond,
		NICOccupancy:       150 * units.Nanosecond,
		MatchPerEntry:      80 * units.Nanosecond,
		EagerThreshold:     32 * units.KiB,
		EnvelopeBytes:      64,
		UnexpectedCopyRate: 1200 * units.MBps,
		UnexpectedCopyBase: 500 * units.Nanosecond,
	}
}

// Network owns one NIC per fabric endpoint and the rank-to-node mapping.
type Network struct {
	eng    *sim.Engine
	fab    *fabric.Fabric
	nics   []*NIC
	nodeOf func(rank int) int

	// folded holds the NIC counts the last FlushMetrics saw.
	folded [3]uint64
}

// NewNetwork equips every fabric node with a NIC. nodeOf maps a global MPI
// rank to its fabric node (ranks on the same node must not exchange through
// the NIC; the MPI layer routes those over shared memory).
func NewNetwork(eng *sim.Engine, fab *fabric.Fabric, params Params, nodeOf func(rank int) int) *Network {
	n := &Network{eng: eng, fab: fab, nodeOf: nodeOf}
	n.nics = make([]*NIC, fab.Nodes())
	for i := range n.nics {
		n.nics[i] = &NIC{
			net:    n,
			eng:    eng,
			node:   i,
			params: params,
			thread: eng.NewServer(),
		}
	}
	n.foldCounts(eng.Metrics())
	return n
}

// foldCounts adds the NICs' counts, summed network-wide, to reg (see
// metrics.Registry.Fold).
func (n *Network) foldCounts(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	var sends, recvs, unexpected uint64
	for _, nic := range n.nics {
		sends += nic.Sends
		recvs += nic.Recvs
		unexpected += nic.Unexpected
	}
	reg.Fold(n.folded[:],
		metrics.Tally{Name: "elan.tx_posts", Total: sends},
		metrics.Tally{Name: "elan.rx_posts", Total: recvs},
		metrics.Tally{Name: "elan.unexpected", Total: unexpected})
}

// FlushMetrics folds end-of-run NIC statistics into the engine's registry:
// the send, receive and unexpected-arrival counts gained since the last
// flush, a histogram of per-NIC thread utilization (percent) and the peak
// matching queue depths across all NICs. Counter and histogram adds and
// gauge maxima commute, so a registry shared by parallel jobs stays
// deterministic. No-op without a registry.
func (n *Network) FlushMetrics() {
	reg := n.eng.Metrics()
	if reg == nil {
		return
	}
	n.foldCounts(reg)
	hUtil := reg.Histogram("elan.thread_util_pct")
	gPosted := reg.Gauge("elan.max_posted_depth")
	gUnexp := reg.Gauge("elan.max_unexpected_depth")
	for _, nic := range n.nics {
		if nic.Sends == 0 && nic.Recvs == 0 {
			continue
		}
		hUtil.Observe(int64(nic.thread.Utilization() * 100))
		posted, unexpected := nic.QueueStats()
		gPosted.SetMax(float64(posted))
		gUnexp.SetMax(float64(unexpected))
	}
}

// NIC returns the adapter of the given node.
func (n *Network) NIC(node int) *NIC { return n.nics[node] }

// Recv is an in-flight tagged receive.
type Recv struct {
	// Done fires when the receive completes: the signal RxPost allocated,
	// or nil for a receive posted with RxPostThen.
	Done    *sim.Signal
	Src     int // filled at completion
	Tag     int
	Size    units.Bytes
	Payload interface{}

	then func() // RxPostThen's continuation
}

// port is the per-local-rank Tports context on a NIC.
type port struct {
	rank int
	eng  match.Engine
	seq  match.Sequencer
	// txSeq is the send sequence toward each destination rank, grown on
	// demand.
	txSeq []uint64
}

// NIC is one Elan-4 adapter. All protocol work runs on its thread server.
type NIC struct {
	net    *Network
	eng    *sim.Engine
	node   int
	params Params
	thread *sim.Server

	ports []*port // one per local rank: a short list

	freeMsgs sim.FreeList[envelopeMsg] // released sends

	Sends, Recvs, Unexpected uint64
}

// Thread exposes the NIC thread server (for utilization statistics).
func (n *NIC) Thread() *sim.Server { return n.thread }

// AttachRank creates the Tports context for a rank hosted on this node.
func (n *NIC) AttachRank(rank int) {
	for _, pt := range n.ports {
		if pt.rank == rank {
			panic(fmt.Sprintf("elan: rank %d already attached to node %d", rank, n.node))
		}
	}
	n.ports = append(n.ports, &port{rank: rank})
}

func (n *NIC) portOf(rank int) *port {
	for _, pt := range n.ports {
		if pt.rank == rank {
			return pt
		}
	}
	panic(fmt.Sprintf("elan: rank %d not attached to node %d", rank, n.node))
}

// envelopeMsg crosses the wire for every send: alone for rendezvous, fused
// with the payload for eager. It carries the send's whole life, from the
// command post to the matched receive's completion, as one continuation,
// stepFn, bound once, so no stage schedules a closure.
//
// A send completes when the application buffer is reusable, by firing
// txDone, the signal TxPost allocated and handed out, or, when txDone is
// nil, by scheduling then. Either way the message goes back to the source
// NIC's pool when the matched receive completes, its one release point,
// holding neither.
type envelopeMsg struct {
	net     *Network
	live    sim.Live
	eager   bool
	stage   txStage // the stage step runs next
	then    func()
	txDone  *sim.Signal
	env     match.Envelope
	dstRank int
	seq     uint64
	size    units.Bytes
	payload interface{}
	srcNode int
	dstNode int
	rx      *Recv // the matched receive
	stepFn  func()
}

type txStage uint8

const (
	stageInject   txStage = iota // the source NIC picked up the command
	stageArrive                  // the envelope reached the destination NIC
	stageMatched                 // matched on arrival, by the destination thread
	stagePosted                  // matched from the unexpected queue by a post
	stageCTS                     // clear-to-send reached the source NIC
	stagePull                    // source NIC ready to DMA the payload
	stagePulled                  // payload delivered: the send buffer is free
	stageFinish                  // payload delivered: destination completion
	stageComplete                // the receive completes
)

// TxPost starts a tagged send from srcRank to dstRank. The calling process
// pays only the command-post overhead; everything else is NIC-driven. The
// returned signal fires when the application buffer is reusable (eager:
// after the NIC has consumed it; rendezvous: after the payload has been
// pulled by the receiver).
func (n *NIC) TxPost(p *sim.Proc, srcRank, dstRank int, env match.Envelope, size units.Bytes, payload interface{}) *sim.Signal {
	msg := n.txPost(p, srcRank, dstRank, env, size, payload)
	msg.txDone = n.eng.NewSignal("elan tx %d->%d", srcRank, dstRank)
	return msg.txDone
}

// TxPostThen is TxPost for a caller that needs no signal: when the
// application buffer is reusable it schedules then (if not nil), exactly
// as the signal's Fire would schedule a single OnFire callback.
func (n *NIC) TxPostThen(p *sim.Proc, srcRank, dstRank int, env match.Envelope, size units.Bytes, payload interface{}, then func()) {
	n.txPost(p, srcRank, dstRank, env, size, payload).then = then
}

// txPost charges the command post and hands the send to the NIC thread.
// The caller sets how the send completes before the thread picks it up.
func (n *NIC) txPost(p *sim.Proc, srcRank, dstRank int, env match.Envelope, size units.Bytes, payload interface{}) *envelopeMsg {
	dstNode := n.net.nodeOf(dstRank)
	if dstNode == n.node {
		panic("elan: intra-node sends belong to the MPI shared-memory channel")
	}
	n.Sends++
	p.Sleep(n.params.TxPostOverhead)

	pt := n.portOf(srcRank)
	if dstRank >= len(pt.txSeq) {
		pt.txSeq = append(pt.txSeq, make([]uint64, dstRank+1-len(pt.txSeq))...)
	}
	msg := n.freeMsgs.Get()
	if msg == nil {
		msg = &envelopeMsg{net: n.net}
		msg.stepFn = msg.step
	}
	msg.live.Acquire()
	msg.env = env
	msg.dstRank = dstRank
	msg.seq = pt.txSeq[dstRank]
	msg.size = size
	msg.eager = size <= n.params.EagerThreshold
	msg.stage = stageInject
	msg.payload = payload
	msg.srcNode = n.node
	msg.dstNode = dstNode
	pt.txSeq[dstRank]++
	// NIC picks up the command (pipelined engines), then injects.
	n.thread.ServePipelined(n.params.NICOccupancy, n.params.NICProcess, msg.stepFn)
	return msg
}

// sent completes the send: the application buffer is reusable.
func (msg *envelopeMsg) sent() {
	if msg.txDone != nil {
		msg.txDone.Fire()
	} else if msg.then != nil {
		msg.net.eng.After(0, msg.then)
	}
}

func (msg *envelopeMsg) step() {
	msg.live.Check(msg)
	fab := msg.net.fab
	src, dst := msg.net.nics[msg.srcNode], msg.net.nics[msg.dstNode]
	switch msg.stage {
	case stageInject:
		// Eager messages carry the envelope in the packet header (covered
		// by the fabric's per-packet overhead); rendezvous sends a bare
		// envelope.
		wire := msg.size
		if msg.eager {
			// Buffer ownership passes to the NIC at injection time.
			msg.sent()
		} else {
			wire = src.params.EnvelopeBytes
		}
		msg.stage = stageArrive
		fab.SendThen(msg.srcNode, msg.dstNode, wire, msg.stepFn)
	case stageArrive:
		dst.envelopeArrived(msg)
	case stageMatched:
		dst.completeMatch(msg)
	case stagePosted:
		if msg.eager {
			// Drain the system buffer into the user buffer by local DMA.
			msg.stage = stageComplete
			drain := dst.params.UnexpectedCopyBase + dst.params.UnexpectedCopyRate.TimeFor(msg.size)
			dst.thread.ServeThen(drain, msg.stepFn)
			return
		}
		dst.completeMatch(msg)
	case stageCTS:
		msg.stage = stagePull
		src.thread.ServePipelined(src.params.NICOccupancy, src.params.NICProcess, msg.stepFn)
	case stagePull:
		// The payload's delivery runs two callbacks, in this order: one
		// frees the send buffer, the next starts the receive completion.
		msg.stage = stagePulled
		fab.SendThen(msg.srcNode, msg.dstNode, msg.size, msg.stepFn, msg.stepFn)
	case stagePulled:
		msg.stage = stageFinish
		msg.sent()
	case stageFinish:
		msg.stage = stageComplete
		dst.thread.ServePipelined(dst.params.NICOccupancy, dst.params.NICProcess, msg.stepFn)
	case stageComplete:
		msg.finishRecv()
	}
}

// finishRecv completes the matched receive with the message's envelope.
// It is the message's last stage: the message goes back to its source
// NIC's pool.
func (msg *envelopeMsg) finishRecv() {
	rx := msg.rx
	rx.Src = msg.env.Src
	rx.Tag = msg.env.Tag
	rx.Size = msg.size
	rx.Payload = msg.payload
	if rx.Done != nil {
		rx.Done.Fire()
	} else if rx.then != nil {
		msg.net.eng.After(0, rx.then)
	}
	msg.rx, msg.payload, msg.then, msg.txDone = nil, nil, nil, nil
	msg.net.nics[msg.srcNode].freeMsgs.Put(msg, &msg.live)
}

// envelopeArrived runs on the destination NIC when an envelope (possibly
// fused with eager payload) has been fully delivered. Per-sender order is
// restored before matching, since the adaptive fabric may reorder messages
// (paper §3: Tports presents each sender's messages in order).
func (n *NIC) envelopeArrived(msg *envelopeMsg) {
	pt := n.portOf(msg.dstRank)
	// The batch is reused by the port's next Submit, which matchArrival,
	// scheduling only, never reaches.
	for _, m := range pt.seq.Submit(msg.env.Src, msg.seq, msg) {
		n.matchArrival(pt, m.(*envelopeMsg))
	}
}

// matchArrival is the only way an envelope enters matching. It refuses one
// the port's sequencer has not released, so the in-order contract is
// checked on every run.
func (n *NIC) matchArrival(pt *port, msg *envelopeMsg) {
	if !pt.seq.Released(msg.env.Src, msg.seq) {
		panic(fmt.Sprintf("elan: rank %d matched seq %d from rank %d before its sequencer released it",
			msg.dstRank, msg.seq, msg.env.Src))
	}
	data, found, traversed := pt.eng.Arrive(msg.env, msg)
	walk := units.Duration(traversed) * n.params.MatchPerEntry
	occ := n.params.NICOccupancy + walk
	lat := n.params.NICProcess + walk
	if !found {
		// Queued unexpected; eager payload now sits in a system buffer.
		n.Unexpected++
		n.thread.Serve(occ)
		return
	}
	msg.rx = data.(*Recv)
	msg.stage = stageMatched
	n.thread.ServePipelined(occ, lat, msg.stepFn)
}

// completeMatch runs after the NIC thread has matched envelope and receive.
func (n *NIC) completeMatch(msg *envelopeMsg) {
	if msg.eager {
		// Matched eager data was DMAed directly to the user buffer as it
		// arrived; completion is immediate.
		msg.finishRecv()
		return
	}
	// Rendezvous: send CTS back; source NIC then DMAs the payload. The
	// sender's buffer is reusable, and txDone fires, at exactly the
	// payload's delivery time.
	msg.stage = stageCTS
	n.net.fab.SendThen(n.node, msg.srcNode, n.params.EnvelopeBytes, msg.stepFn)
}

// RxPost posts a tagged receive for the given local rank. The calling
// process pays only the descriptor-post overhead; matching runs on the NIC.
func (n *NIC) RxPost(p *sim.Proc, dstRank int, env match.Envelope) *Recv {
	recv := &Recv{Done: n.eng.NewSignal("elan rx rank%d", dstRank)}
	n.rxPost(p, dstRank, env, recv)
	return recv
}

// RxPostThen is RxPost for a caller that keeps the receive in its own
// state: rx is filled in at completion, and then is scheduled exactly as
// Done's Fire would schedule a single OnFire callback. rx must stay
// untouched until then runs.
func (n *NIC) RxPostThen(p *sim.Proc, dstRank int, env match.Envelope, rx *Recv, then func()) {
	*rx = Recv{then: then}
	n.rxPost(p, dstRank, env, rx)
}

// rxPost charges the descriptor post and matches recv on the NIC.
func (n *NIC) rxPost(p *sim.Proc, dstRank int, env match.Envelope, recv *Recv) {
	pt := n.portOf(dstRank)
	n.Recvs++
	p.Sleep(n.params.RxPostOverhead)

	// The NIC thread walks the unexpected queue (or appends the post).
	data, found, traversed := pt.eng.PostRecv(env, recv)
	walk := units.Duration(traversed) * n.params.MatchPerEntry
	if !found {
		n.thread.Serve(n.params.NICOccupancy + walk)
		return
	}
	msg := data.(*envelopeMsg)
	msg.rx = recv
	msg.stage = stagePosted
	n.thread.ServePipelined(n.params.NICOccupancy+walk, n.params.NICProcess+walk, msg.stepFn)
}

// QueueStats reports the peak matching-queue depths across all ports of
// this NIC.
func (n *NIC) QueueStats() (maxPosted, maxUnexpected int) {
	for _, pt := range n.ports {
		if pt.eng.MaxPosted > maxPosted {
			maxPosted = pt.eng.MaxPosted
		}
		if pt.eng.MaxUnexpected > maxUnexpected {
			maxUnexpected = pt.eng.MaxUnexpected
		}
	}
	return
}
