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

	// orderProbe, when non-nil, observes sequencer releases (see probe.go).
	orderProbe OrderProbe
}

// NewNetwork equips every fabric node with a NIC. nodeOf maps a global MPI
// rank to its fabric node (ranks on the same node must not exchange through
// the NIC; the MPI layer routes those over shared memory).
func NewNetwork(eng *sim.Engine, fab *fabric.Fabric, params Params, nodeOf func(rank int) int) *Network {
	n := &Network{eng: eng, fab: fab, nodeOf: nodeOf}
	n.nics = make([]*NIC, fab.Nodes())
	// Instruments are network-wide aggregates; nil (no registry) no-ops.
	reg := eng.Metrics()
	mSends := reg.Counter("elan.tx_posts")
	mRecvs := reg.Counter("elan.rx_posts")
	mUnexpected := reg.Counter("elan.unexpected")
	for i := range n.nics {
		n.nics[i] = &NIC{
			net:         n,
			eng:         eng,
			node:        i,
			params:      params,
			thread:      eng.NewServer(fmt.Sprintf("elan%d", i)),
			ports:       map[int]*port{},
			txSeq:       map[[2]int]uint64{},
			mSends:      mSends,
			mRecvs:      mRecvs,
			mUnexpected: mUnexpected,
		}
	}
	return n
}

// FlushMetrics folds end-of-run NIC statistics into the engine's registry: a
// histogram of per-NIC thread utilization (percent) and the peak matching
// queue depths across all NICs. Histogram adds and gauge maxima commute, so
// a registry shared by parallel jobs stays deterministic. No-op without a
// registry.
func (n *Network) FlushMetrics() {
	reg := n.eng.Metrics()
	if reg == nil {
		return
	}
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

// Fabric returns the underlying fabric.
func (n *Network) Fabric() *fabric.Fabric { return n.fab }

// Recv is an in-flight tagged receive.
type Recv struct {
	Done    *sim.Signal
	Src     int // filled at completion
	Tag     int
	Size    units.Bytes
	Payload interface{}
}

// port is the per-local-rank Tports context on a NIC.
type port struct {
	rank int
	eng  match.Engine
	seq  *match.Sequencer
}

// NIC is one Elan-4 adapter. All protocol work runs on its thread server.
type NIC struct {
	net    *Network
	eng    *sim.Engine
	node   int
	params Params
	thread *sim.Server

	ports map[int]*port     // key: local rank
	txSeq map[[2]int]uint64 // key: (source rank, destination rank) send sequence

	Sends, Recvs, Unexpected uint64

	mSends, mRecvs, mUnexpected *metrics.Counter // nil-safe; shared network-wide
}

// Params returns the NIC's parameters.
func (n *NIC) Params() Params { return n.params }

// Thread exposes the NIC thread server (for utilization statistics).
func (n *NIC) Thread() *sim.Server { return n.thread }

// AttachRank creates the Tports context for a rank hosted on this node.
func (n *NIC) AttachRank(rank int) {
	if _, dup := n.ports[rank]; dup {
		panic(fmt.Sprintf("elan: rank %d already attached to node %d", rank, n.node))
	}
	n.ports[rank] = &port{rank: rank, seq: match.NewSequencer()}
}

func (n *NIC) portOf(rank int) *port {
	p := n.ports[rank]
	if p == nil {
		panic(fmt.Sprintf("elan: rank %d not attached to node %d", rank, n.node))
	}
	return p
}

// envelopeMsg crosses the wire for every send: alone for rendezvous, fused
// with the payload for eager.
type envelopeMsg struct {
	env     match.Envelope
	dstRank int
	seq     uint64
	size    units.Bytes
	eager   bool
	payload interface{}
	srcNode int
	txDone  *sim.Signal // rendezvous only: fired when payload has been pulled
}

// rxState is the match-engine entry for a posted receive.
type rxState struct {
	recv *Recv
}

// TxPost starts a tagged send from srcRank to dstRank. The calling process
// pays only the command-post overhead; everything else is NIC-driven. The
// returned signal fires when the application buffer is reusable (eager:
// after the NIC has consumed it; rendezvous: after the payload has been
// pulled by the receiver).
func (n *NIC) TxPost(p *sim.Proc, srcRank, dstRank int, env match.Envelope, size units.Bytes, payload interface{}) *sim.Signal {
	dstNode := n.net.nodeOf(dstRank)
	if dstNode == n.node {
		panic("elan: intra-node sends belong to the MPI shared-memory channel")
	}
	n.Sends++
	n.mSends.Inc()
	p.Sleep(n.params.TxPostOverhead)

	flow := [2]int{srcRank, dstRank}
	msg := &envelopeMsg{
		env:     env,
		dstRank: dstRank,
		seq:     n.txSeq[flow],
		size:    size,
		eager:   size <= n.params.EagerThreshold,
		payload: payload,
		srcNode: n.node,
	}
	n.txSeq[flow]++

	txDone := n.eng.NewSignal(fmt.Sprintf("elan tx %d->%d", srcRank, dstRank))
	// Eager messages carry the envelope in the packet header (covered by
	// the fabric's per-packet overhead); rendezvous sends a bare envelope.
	wire := size
	if !msg.eager {
		wire = n.params.EnvelopeBytes
		msg.txDone = txDone
	}
	// NIC picks up the command (pipelined engines), then injects.
	n.thread.ServePipelined(n.params.NICOccupancy, n.params.NICProcess, func() {
		if msg.eager {
			// Buffer ownership passes to the NIC at injection time.
			txDone.Fire()
		}
		n.net.fab.Send(n.node, dstNode, wire).OnFire(func() {
			n.net.nics[dstNode].envelopeArrived(msg)
		})
	})
	return txDone
}

// envelopeArrived runs on the destination NIC when an envelope (possibly
// fused with eager payload) has been fully delivered. Per-sender order is
// restored before matching, since the adaptive fabric may reorder messages.
func (n *NIC) envelopeArrived(msg *envelopeMsg) {
	pt := n.portOf(msg.dstRank)
	for _, m := range pt.seq.Submit(msg.env.Src, msg.seq, msg) {
		em := m.(*envelopeMsg)
		if n.net.orderProbe != nil {
			n.net.orderProbe(em.env.Src, em.dstRank, em.seq)
		}
		n.matchArrival(pt, em)
	}
}

func (n *NIC) matchArrival(pt *port, msg *envelopeMsg) {
	data, found, traversed := pt.eng.Arrive(msg.env, msg)
	walk := units.Duration(traversed) * n.params.MatchPerEntry
	occ := n.params.NICOccupancy + walk
	lat := n.params.NICProcess + walk
	if !found {
		// Queued unexpected; eager payload now sits in a system buffer.
		n.Unexpected++
		n.mUnexpected.Inc()
		n.thread.Serve(occ)
		return
	}
	rx := data.(*rxState)
	n.thread.ServePipelined(occ, lat, func() {
		n.completeMatch(pt, rx, msg)
	})
}

// completeMatch runs after the NIC thread has matched envelope and receive.
func (n *NIC) completeMatch(pt *port, rx *rxState, msg *envelopeMsg) {
	if msg.eager {
		// Matched eager data was DMAed directly to the user buffer as it
		// arrived; completion is immediate.
		n.finishRecv(rx, msg)
		return
	}
	// Rendezvous: send CTS back; source NIC then DMAs the payload. The
	// sender's buffer is reusable, and txDone fires, at exactly the
	// payload's delivery time.
	src := n.net.nics[msg.srcNode]
	n.net.fab.Send(n.node, msg.srcNode, n.params.EnvelopeBytes).OnFire(func() {
		src.thread.ServePipelined(src.params.NICOccupancy, src.params.NICProcess, func() {
			pull := n.net.fab.Send(msg.srcNode, n.node, msg.size)
			pull.OnFire(func() { msg.txDone.Fire() })
			pull.OnFire(func() {
				n.thread.ServePipelined(n.params.NICOccupancy, n.params.NICProcess, func() {
					n.finishRecv(rx, msg)
				})
			})
		})
	})
}

func (n *NIC) finishRecv(rx *rxState, msg *envelopeMsg) {
	rx.recv.Src = msg.env.Src
	rx.recv.Tag = msg.env.Tag
	rx.recv.Size = msg.size
	rx.recv.Payload = msg.payload
	rx.recv.Done.Fire()
}

// RxPost posts a tagged receive for the given local rank. The calling
// process pays only the descriptor-post overhead; matching runs on the NIC.
func (n *NIC) RxPost(p *sim.Proc, dstRank int, env match.Envelope) *Recv {
	pt := n.portOf(dstRank)
	n.Recvs++
	n.mRecvs.Inc()
	p.Sleep(n.params.RxPostOverhead)

	recv := &Recv{Done: n.eng.NewSignal(fmt.Sprintf("elan rx rank%d", dstRank))}
	rx := &rxState{recv: recv}
	// The NIC thread walks the unexpected queue (or appends the post).
	data, found, traversed := pt.eng.PostRecv(env, rx)
	walk := units.Duration(traversed) * n.params.MatchPerEntry
	if !found {
		n.thread.Serve(n.params.NICOccupancy + walk)
		return recv
	}
	msg := data.(*envelopeMsg)
	n.thread.ServePipelined(n.params.NICOccupancy+walk, n.params.NICProcess+walk, func() {
		if msg.eager {
			// Drain the system buffer into the user buffer by local DMA.
			drain := n.params.UnexpectedCopyBase + n.params.UnexpectedCopyRate.TimeFor(msg.size)
			n.thread.ServeThen(drain, func() {
				n.finishRecv(rx, msg)
			})
			return
		}
		n.completeMatch(pt, rx, msg)
	})
	return recv
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
