// Package ib models a 4X InfiniBand host channel adapter at the verbs
// level: reliable-connection queue pairs, RDMA write, completion
// notification, explicit memory registration, and connection establishment.
//
// The model captures the architectural properties the paper's Section 3
// contrasts with Quadrics:
//
//   - Connection-oriented: a queue pair must be established per peer before
//     data can flow, and per-connection state (QP context + the MPI layer's
//     per-peer eager buffers) scales linearly with peers.
//   - Explicit registration: transfers touch only registered memory;
//     registration is a host-side operation whose cost is mitigated — and
//     occasionally amplified — by a pin-down cache (see RegCache).
//   - No matching, no independent progress: the HCA moves bytes; every MPI
//     semantic (tag matching, rendezvous control) is host software, which
//     is exactly what the MPI transport built on this package does.
//
// Costs are split between the host (paid by the calling process as
// simulated CPU time) and the HCA's processing engine (a FIFO server, so
// back-to-back small messages queue behind each other — the message-rate
// limit visible in the paper's streaming benchmark).
package ib

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/units"
)

// ErrRetryExhausted is wrapped by the error a run ends with when a queue
// pair enters the error state because a transfer's retransmission budget
// ran out: the one way a fault plan kills an IB run by design.
var ErrRetryExhausted = errors.New("retry budget exhausted")

// Params defines HCA timing and capacity parameters.
type Params struct {
	// PostOverhead is host CPU time to build a WQE and ring the doorbell.
	PostOverhead units.Duration
	// DoorbellLatency is the posted-write delay from doorbell to the HCA
	// starting on the WQE.
	DoorbellLatency units.Duration
	// DoorbellBusTime is PCI-X bus occupancy per doorbell/WQE programmed
	// I/O. PCI-X is half duplex, so these PIO cycles steal bandwidth from
	// concurrent DMA — a per-message cost that matters for streaming
	// small messages.
	DoorbellBusTime units.Duration
	// ProcPerWQE is HCA processing time per work request (send side).
	ProcPerWQE units.Duration
	// RecvProc is HCA processing time per arriving message (placement,
	// CQE generation).
	RecvProc units.Duration

	// Memory registration cost model.
	RegLookup    units.Duration // pin-down cache lookup
	RegBase      units.Duration // per registration call
	RegPerPage   units.Duration // per 4 KiB page registered
	DeregBase    units.Duration
	DeregPerPage units.Duration
	PageSize     units.Bytes
	RegCacheCap  units.Bytes // pin-down cache capacity

	// QPContextBytes approximates per-connection HCA/driver state, for
	// memory-scaling statistics.
	QPContextBytes units.Bytes

	// Reliable-connection recovery. IB pushes loss recovery to the
	// endpoints: the responder silently discards a bad packet and the
	// requester retransmits the whole request when its transport timer
	// expires — there is no link-level retry as on Quadrics. The timers
	// below are armed only on fabrics with fault injection enabled, so
	// fault-free runs execute an identical event stream with or without
	// this machinery.

	// RetransTimeout is the initial RC transport timeout: how long the
	// requester waits past the transfer's expected delivery time (see
	// reliable's size-dependent floor) before retransmitting.
	RetransTimeout units.Duration
	// RetransTimeoutMax caps the exponential backoff (the timeout doubles
	// on each consecutive retry of the same request).
	RetransTimeoutMax units.Duration
	// MaxRetries is the retry budget per request. When it is exhausted the
	// QP transitions to the error state and the run fails — matching real
	// RC semantics, where the ULP sees IBV_WC_RETRY_EXC_ERR and the
	// connection is dead.
	MaxRetries int
}

// DefaultParams returns parameters calibrated for the paper's platform: a
// Voltaire HCA 400 (4X, PCI-X) running MVAPICH-era firmware. See
// internal/platform for the calibration anchors.
func DefaultParams() Params {
	return Params{
		PostOverhead:    300 * units.Nanosecond,
		DoorbellLatency: 1300 * units.Nanosecond,
		DoorbellBusTime: 450 * units.Nanosecond,
		ProcPerWQE:      1800 * units.Nanosecond,
		RecvProc:        1000 * units.Nanosecond,
		RegLookup:       50 * units.Nanosecond,
		RegBase:         1500 * units.Nanosecond,
		RegPerPage:      600 * units.Nanosecond,
		DeregBase:       800 * units.Nanosecond,
		DeregPerPage:    300 * units.Nanosecond,
		PageSize:        4 * units.KiB,
		RegCacheCap:     7 * units.MiB,
		QPContextBytes:  1 * units.KiB,

		// 100us initial timeout — five orders of magnitude above Quadrics'
		// link-level retry, the knee the degraded-fabric experiment
		// measures. The cap is sized so the full ladder (~10ms to the last
		// retransmission) comfortably outlasts worst-case host-bus
		// congestion in the experiments: real deployments choose ACK
		// timeouts well above any congested RTT, and a budget short enough
		// to be beaten by ordinary queueing would turn congestion into
		// spurious connection teardown.
		RetransTimeout:    100 * units.Microsecond,
		RetransTimeoutMax: 4000 * units.Microsecond,
		MaxRetries:        7,
	}
}

// Delivery describes an RDMA write arriving at a destination HCA. The
// receiving host is NOT involved: the HCA has already placed the payload in
// registered memory when the handler runs. Handlers run in event context
// and must not block; they typically enqueue work for the host to discover
// on its next MPI call.
type Delivery struct {
	SrcNode int
	Imm     interface{} // immediate data / software envelope riding with the message
	Size    units.Bytes
}

// Network owns one HCA per fabric endpoint.
type Network struct {
	eng  *sim.Engine
	hcas []*HCA

	// folded holds the HCA counts the last FlushMetrics saw.
	folded [8]uint64
}

// NewNetwork equips every node of the fabric with an HCA.
func NewNetwork(eng *sim.Engine, fab *fabric.Fabric, params Params) *Network {
	n := &Network{eng: eng}
	n.hcas = make([]*HCA, fab.Nodes())
	for i := range n.hcas {
		n.hcas[i] = &HCA{
			net:      n,
			eng:      eng,
			fab:      fab,
			node:     i,
			params:   params,
			engine:   eng.NewServer(),
			regCache: NewRegCache(params.RegCacheCap),
			qps:      make([]bool, fab.Nodes()),
		}
	}
	n.foldCounts(eng.Metrics())
	return n
}

// foldCounts adds the HCAs' counts, summed network-wide, to reg (see
// metrics.Registry.Fold).
func (n *Network) foldCounts(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	var sends, recvs, retrans, timeouts, qpErrs, hits, misses, evictions uint64
	for _, h := range n.hcas {
		sends += h.SendCount
		recvs += h.RecvCount
		retrans += h.Retransmits
		timeouts += h.Timeouts
		qpErrs += h.QPErrors
		hits += h.regCache.Hits
		misses += h.regCache.Misses
		evictions += h.regCache.Evictions
	}
	reg.Fold(n.folded[:],
		metrics.Tally{Name: "ib.rdma_posts", Total: sends},
		metrics.Tally{Name: "ib.deliveries", Total: recvs},
		metrics.Tally{Name: "ib.retransmits", Total: retrans},
		metrics.Tally{Name: "ib.timeouts", Total: timeouts},
		metrics.Tally{Name: "ib.qp_errors", Total: qpErrs},
		metrics.Tally{Name: "ib.regcache_hits", Total: hits},
		metrics.Tally{Name: "ib.regcache_misses", Total: misses},
		metrics.Tally{Name: "ib.regcache_evictions", Total: evictions})
}

// FlushMetrics folds end-of-run statistics into the engine's registry: the
// HCAs' post, delivery, recovery and registration-cache counts gained since
// the last flush, and the connection-state levels — total established QPs,
// QP context memory, and currently pinned registration-cache bytes (summed
// across HCAs). Counter adds and gauge maxima commute, so a registry shared
// by parallel jobs stays deterministic. No-op without a registry.
func (n *Network) FlushMetrics() {
	reg := n.eng.Metrics()
	if reg == nil {
		return
	}
	n.foldCounts(reg)
	var qps int
	var qpMem, pinned units.Bytes
	for _, h := range n.hcas {
		qps += h.NumQPs()
		qpMem += h.QPMemory
		pinned += h.regCache.Used()
	}
	reg.Gauge("ib.qps").SetMax(float64(qps))
	reg.Gauge("ib.qp_memory_bytes").SetMax(float64(qpMem))
	reg.Gauge("ib.regcache_pinned_bytes").SetMax(float64(pinned))
}

// HCA returns the adapter of the given node.
func (n *Network) HCA(node int) *HCA { return n.hcas[node] }

// HCA is one host channel adapter.
type HCA struct {
	net    *Network
	eng    *sim.Engine
	fab    *fabric.Fabric
	node   int
	params Params

	engine   *sim.Server // the HCA's processing pipeline
	regCache *RegCache
	handler  func(Delivery)

	qps       []bool // connected, per peer node
	numQPs    int
	QPMemory  units.Bytes
	freeOps   sim.FreeList[rdmaOp] // released RDMA operations
	SendCount uint64
	RecvCount uint64
	// Retransmits counts fabric re-sends issued by this HCA's RC
	// transport timers; Timeouts counts timer expirations (each retry is
	// preceded by a timeout, so Timeouts >= Retransmits — the excess is
	// retry-budget exhaustion, which QPErrors counts).
	Retransmits uint64
	Timeouts    uint64
	QPErrors    uint64
}

// RegCache exposes the pin-down cache for statistics.
func (h *HCA) RegCache() *RegCache { return h.regCache }

// SetHandler installs the upcall invoked when an RDMA write from a peer has
// been fully placed in this node's memory.
func (h *HCA) SetHandler(fn func(Delivery)) { h.handler = fn }

// ConnectNoCost establishes a reliable connection to the peer node. The
// paper's Section 3.3.1: InfiniBand requires this step; Quadrics does not.
// Connections are made during job launch (MPI_Init), which the paper's runs
// do not time, so it charges no time; the QP's state and memory are
// counted. Connecting twice is a no-op.
func (h *HCA) ConnectNoCost(peer int) {
	if h.qps[peer] {
		return
	}
	h.qps[peer] = true
	h.numQPs++
	h.QPMemory += h.params.QPContextBytes
}

// Connected reports whether a QP to the peer exists.
func (h *HCA) Connected(peer int) bool { return peer >= 0 && peer < len(h.qps) && h.qps[peer] }

// NumQPs reports the number of established connections.
func (h *HCA) NumQPs() int { return h.numQPs }

// Register pins the buffer (key, size), charging the calling process the
// host-side registration cost through the pin-down cache.
func (h *HCA) Register(p *sim.Proc, key uint64, size units.Bytes) {
	p.Sleep(h.regCache.Access(key, size, &h.params))
}

// reliable runs one RC request through the recovery state machine: each
// attempt sends size bytes from src to dst over the fabric; deliver runs
// exactly once, on the first delivery that arrives. On a fabric without
// fault injection this collapses to Send(src, dst, size).OnFire(deliver) —
// no timer events, so fault-free runs are byte-identical to a build
// without the recovery machinery.
//
// With faults enabled, each attempt arms a transport timer (exponential
// backoff: RetransTimeout doubling per retry, capped at RetransTimeoutMax).
// The timer counts from the tail of the transfer, not its head: real RC
// requesters time out on the missing ACK of the last packet, so the model
// adds a size-dependent floor — twice the transfer's unloaded delivery
// time, covering serialization, propagation, the ACK's return and a
// contention allowance — on top of the configured ladder. Without the
// floor, any transfer whose wire time exceeds RetransTimeout would
// spuriously retransmit on a faulty-but-working fabric, and the duplicate
// MiB-scale messages would congest the path until the budget exhausted.
//
// A timer that expires before delivery triggers a retransmission — a fresh
// Send — until MaxRetries is exhausted, at which point the QP enters the
// error state and the run fails via Engine.Fail (deterministically: the
// error carries only the QP identity and retry count). A late original
// delivery racing its own retransmission is absorbed by the delivered
// flag, which also stands the timers down, and the attempt counter keeps a
// stale timer from double-retrying.
func (h *HCA) reliable(kind string, peer, src, dst int, size units.Bytes, deliver func()) {
	if !h.fab.FaultsEnabled() {
		h.fab.SendThen(src, dst, size, deliver)
		return
	}
	// Computed only on faulty fabrics: MinLatency walks the chunk
	// recurrence (O(chunks)), too costly for the fault-free hot path.
	floor := h.fab.MinLatency(src, dst, size)
	var (
		delivered bool // an attempt has delivered: timers stand down, duplicates are absorbed
		attempt   int
		try       func(n int)
	)
	try = func(n int) {
		attempt = n
		h.fab.SendThen(src, dst, size, func() {
			if delivered {
				return // duplicate: a retransmission already delivered
			}
			delivered = true
			deliver()
		})
		timeout := h.params.RetransTimeout
		for i := 0; i < n && timeout < h.params.RetransTimeoutMax; i++ {
			timeout *= 2
		}
		if timeout > h.params.RetransTimeoutMax {
			timeout = h.params.RetransTimeoutMax
		}
		timeout += 2 * floor
		h.eng.After(timeout, func() {
			if delivered || attempt != n {
				return
			}
			h.Timeouts++
			if n >= h.params.MaxRetries {
				h.QPErrors++
				h.eng.Fail(fmt.Errorf(
					"ib: QP error on node %d (%s to peer %d): %w after %d retransmissions",
					h.node, kind, peer, ErrRetryExhausted, n))
				return
			}
			h.Retransmits++
			try(n + 1)
		})
	}
	try(0)
}

// RDMAWrite posts an RDMA write of size bytes to the peer node, carrying
// imm as the software envelope. The calling process pays the post overhead;
// the transfer then proceeds asynchronously: doorbell -> HCA engine ->
// fabric -> remote HCA -> remote handler. The returned signal fires at
// local completion (CQE available: the message has been placed remotely).
//
// The destination buffer is the caller's business (RDMA semantics): the
// remote host is not interrupted and performs no work.
func (h *HCA) RDMAWrite(p *sim.Proc, peer int, size units.Bytes, imm interface{}) *sim.Signal {
	op := h.post(p, peer, size, imm, false)
	op.done = h.eng.NewSignal("rdma %d->%d", h.node, peer)
	return op.done
}

// RDMAWriteThen is RDMAWrite for a caller that needs no signal: at local
// completion it schedules then (if not nil), exactly as the signal's Fire
// would schedule a single OnFire callback.
func (h *HCA) RDMAWriteThen(p *sim.Proc, peer int, size units.Bytes, imm interface{}, then func()) {
	h.post(p, peer, size, imm, false).then = then
}

// RDMARead posts an RDMA read of size bytes FROM the peer node into local
// registered memory, carrying imm as a software envelope delivered to the
// LOCAL handler when the data has landed. Like RDMAWrite, the remote host
// is never involved: the remote HCA serves the read from memory — which is
// exactly why read-based ("RGET") rendezvous protocols reduce the
// progress coupling of write-based ones.
//
// The returned signal fires at local completion (data placed locally).
func (h *HCA) RDMARead(p *sim.Proc, peer int, size units.Bytes, imm interface{}) *sim.Signal {
	op := h.post(p, peer, size, imm, true)
	op.done = h.eng.NewSignal("rdma-read %d<-%d", h.node, peer)
	return op.done
}

// RDMAReadThen is RDMARead for a caller that needs no signal, as
// RDMAWriteThen is for RDMAWrite.
func (h *HCA) RDMAReadThen(p *sim.Proc, peer int, size units.Bytes, imm interface{}, then func()) {
	h.post(p, peer, size, imm, true).then = then
}

// post charges the calling process for posting a work request, rings the
// doorbell, and starts the operation's continuation chain. The caller
// sets how the operation completes before the doorbell lands.
func (h *HCA) post(p *sim.Proc, peer int, size units.Bytes, imm interface{}, read bool) *rdmaOp {
	if !h.Connected(peer) {
		what := "write on node %d to"
		if read {
			what = "read on node %d from"
		}
		panic(fmt.Sprintf("ib: RDMA "+what+" unconnected peer %d", h.node, peer))
	}
	h.SendCount++
	p.Sleep(h.params.PostOverhead)
	if bus := h.fab.HostBus(h.node); bus != nil {
		// Doorbell + WQE PIO occupy the shared PCI-X bus.
		bus.Serve(h.params.DoorbellBusTime)
	}
	op := h.freeOps.Get()
	if op == nil {
		op = &rdmaOp{h: h}
		op.stepFn = op.step
	}
	op.live.Acquire()
	op.peer, op.size, op.imm, op.read, op.stage = peer, size, imm, read, stageDoorbell
	h.eng.After(h.params.DoorbellLatency, op.stepFn)
	return op
}

// rdmaOp is one RDMA write or read in flight. Its stages run as one
// continuation, stepFn, bound once, so the doorbell -> WQE -> wire ->
// placement chain schedules no closure per hop.
//
// An operation completes by firing done, the signal RDMAWrite or RDMARead
// allocated and handed out, or, when done is nil, by scheduling then.
// Either way it goes back to its HCA's pool at completion, its one
// release point, holding neither.
type rdmaOp struct {
	h      *HCA // the requester
	live   sim.Live
	peer   int
	size   units.Bytes
	imm    interface{}
	read   bool
	stage  rdmaStage // the stage step runs next
	stepFn func()
	then   func()
	done   *sim.Signal
}

type rdmaStage uint8

const (
	stageDoorbell     rdmaStage = iota // doorbell landed: WQE processing
	stageWire                          // WQE processed: onto the fabric
	stageReadServe                     // read request delivered: the peer serves it
	stageReadResponse                  // read served: the payload flows back
	stagePlace                         // write (or read response) delivered: placement
	stageComplete                      // placed: handler upcall, local completion
)

func (op *rdmaOp) step() {
	op.live.Check(op)
	h := op.h
	switch op.stage {
	case stageDoorbell:
		op.stage = stageWire
		h.engine.ServeThen(h.params.ProcPerWQE, op.stepFn)
	case stageWire:
		if op.read {
			// Read request travels to the peer (header-only), the peer's
			// HCA serves it from memory, and the payload flows back. Both
			// legs are requester-recovered: RC read responses are not
			// acknowledged, so a lost response is detected — and the whole
			// read reissued — by the requester's transport timer.
			op.stage = stageReadServe
			h.reliable("rdma-read-req", op.peer, h.node, op.peer, 64, op.stepFn)
			return
		}
		op.stage = stagePlace
		h.reliable("rdma-write", op.peer, h.node, op.peer, op.size, op.stepFn)
	case stageReadServe:
		op.stage = stageReadResponse
		remote := h.net.hcas[op.peer]
		remote.engine.ServeThen(remote.params.RecvProc, op.stepFn)
	case stageReadResponse:
		op.stage = stagePlace
		h.reliable("rdma-read-resp", op.peer, op.peer, h.node, op.size, op.stepFn)
	case stagePlace:
		// Receive processing on the placing adapter (the destination of a
		// write, the requester of a read), then the handler upcall.
		op.stage = stageComplete
		dst := op.placer()
		dst.RecvCount++
		dst.engine.ServeThen(dst.params.RecvProc, op.stepFn)
	case stageComplete:
		dst, src := op.placer(), op.peer
		if !op.read {
			src = h.node
		}
		if dst.handler != nil {
			dst.handler(Delivery{SrcNode: src, Imm: op.imm, Size: op.size})
		}
		if op.done != nil {
			op.done.Fire()
		} else if op.then != nil {
			h.eng.After(0, op.then)
		}
		op.imm, op.then, op.done = nil, nil, nil
		h.freeOps.Put(op, &op.live)
	}
}

// placer returns the adapter the payload lands on.
func (op *rdmaOp) placer() *HCA {
	if op.read {
		return op.h
	}
	return op.h.net.hcas[op.peer]
}
