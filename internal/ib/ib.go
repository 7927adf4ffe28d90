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
	"fmt"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/units"
)

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
	// CQPoll is host CPU time per completion-queue poll that finds an
	// entry (an empty poll costs CQPollEmpty).
	CQPoll      units.Duration
	CQPollEmpty units.Duration

	// Memory registration cost model.
	RegLookup    units.Duration // pin-down cache lookup
	RegBase      units.Duration // per registration call
	RegPerPage   units.Duration // per 4 KiB page registered
	DeregBase    units.Duration
	DeregPerPage units.Duration
	PageSize     units.Bytes
	RegCacheCap  units.Bytes // pin-down cache capacity

	// QPSetup is the one-time cost to establish a reliable connection to
	// a peer (charged at connect time).
	QPSetup units.Duration
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
		CQPoll:          150 * units.Nanosecond,
		CQPollEmpty:     60 * units.Nanosecond,
		RegLookup:       50 * units.Nanosecond,
		RegBase:         1500 * units.Nanosecond,
		RegPerPage:      600 * units.Nanosecond,
		DeregBase:       800 * units.Nanosecond,
		DeregPerPage:    300 * units.Nanosecond,
		PageSize:        4 * units.KiB,
		RegCacheCap:     7 * units.MiB,
		QPSetup:         120 * units.Microsecond,
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
	fab  *fabric.Fabric
	hcas []*HCA

	// probe, when non-nil, receives RC transport observations (see
	// probe.go). Faulty-branch call sites only.
	probe *DeliveryProbe
}

// NewNetwork equips every node of the fabric with an HCA.
func NewNetwork(eng *sim.Engine, fab *fabric.Fabric, params Params) *Network {
	n := &Network{eng: eng, fab: fab}
	n.hcas = make([]*HCA, fab.Nodes())
	// Instruments are network-wide aggregates; nil (no registry) no-ops.
	reg := eng.Metrics()
	mSends := reg.Counter("ib.rdma_posts")
	mRecvs := reg.Counter("ib.deliveries")
	mRetrans := reg.Counter("ib.retransmits")
	mTimeouts := reg.Counter("ib.timeouts")
	mQPErrs := reg.Counter("ib.qp_errors")
	for i := range n.hcas {
		n.hcas[i] = &HCA{
			net:       n,
			eng:       eng,
			fab:       fab,
			node:      i,
			params:    params,
			engine:    eng.NewServer(fmt.Sprintf("hca%d", i)),
			regCache:  NewRegCache(params.RegCacheCap),
			qps:       map[int]bool{},
			mSends:    mSends,
			mRecvs:    mRecvs,
			mRetrans:  mRetrans,
			mTimeouts: mTimeouts,
			mQPErrs:   mQPErrs,
		}
		n.hcas[i].regCache.SetCounters(
			reg.Counter("ib.regcache_hits"),
			reg.Counter("ib.regcache_misses"),
			reg.Counter("ib.regcache_evictions"))
	}
	return n
}

// FlushMetrics folds end-of-run connection-state levels into the engine's
// registry: total established QPs, QP context memory, and currently pinned
// registration-cache bytes (summed across HCAs). Gauge maxima commute, so a
// registry shared by parallel jobs stays deterministic. No-op without a
// registry.
func (n *Network) FlushMetrics() {
	reg := n.eng.Metrics()
	if reg == nil {
		return
	}
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

// Fabric returns the underlying fabric.
func (n *Network) Fabric() *fabric.Fabric { return n.fab }

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

	qps       map[int]bool
	QPMemory  units.Bytes
	SendCount uint64
	RecvCount uint64
	// Retransmits counts fabric re-sends issued by this HCA's RC
	// transport timers; Timeouts counts timer expirations (each retry is
	// preceded by a timeout, so Timeouts >= Retransmits — the excess is
	// retry-budget exhaustion).
	Retransmits uint64
	Timeouts    uint64

	// reqSeq numbers reliable() requests for delivery-probe reports; only
	// advanced while a probe is installed.
	reqSeq uint64

	mSends    *metrics.Counter // nil-safe; shared network-wide
	mRecvs    *metrics.Counter
	mRetrans  *metrics.Counter
	mTimeouts *metrics.Counter
	mQPErrs   *metrics.Counter
}

// Node reports the fabric endpoint this HCA serves.
func (h *HCA) Node() int { return h.node }

// Params returns the HCA's parameters.
func (h *HCA) Params() Params { return h.params }

// RegCache exposes the pin-down cache for statistics.
func (h *HCA) RegCache() *RegCache { return h.regCache }

// SetHandler installs the upcall invoked when an RDMA write from a peer has
// been fully placed in this node's memory.
func (h *HCA) SetHandler(fn func(Delivery)) { h.handler = fn }

// Connect establishes a reliable connection to the peer node, charging the
// calling process the QP setup cost. Connecting twice is free (idempotent).
// The paper's Section 3.3.1: InfiniBand requires this step; Quadrics does
// not.
func (h *HCA) Connect(p *sim.Proc, peer int) {
	if h.qps[peer] {
		return
	}
	h.qps[peer] = true
	h.QPMemory += h.params.QPContextBytes
	p.Sleep(h.params.QPSetup)
}

// ConnectNoCost establishes a QP without charging wall time — for
// connections made during job launch (MPI_Init), where the paper's runs do
// not time the setup. State and memory are still counted.
func (h *HCA) ConnectNoCost(peer int) {
	if h.qps[peer] {
		return
	}
	h.qps[peer] = true
	h.QPMemory += h.params.QPContextBytes
}

// Connected reports whether a QP to the peer exists.
func (h *HCA) Connected(peer int) bool { return h.qps[peer] }

// NumQPs reports the number of established connections.
func (h *HCA) NumQPs() int { return len(h.qps) }

// Register pins the buffer (key, size), charging the calling process the
// host-side registration cost through the pin-down cache.
func (h *HCA) Register(p *sim.Proc, key uint64, size units.Bytes) {
	p.Sleep(h.regCache.Access(key, size, &h.params))
}

// reliable runs one RC request through the recovery state machine: send()
// issues the wire transfer and returns its delivery signal; deliver runs
// exactly once, on the first delivery that arrives. On a fabric without
// fault injection this collapses to send().OnFire(deliver) — no timer
// events, so fault-free runs are byte-identical to a build without the
// recovery machinery.
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
// send() — until MaxRetries is exhausted, at which point the QP enters the
// error state and the run fails via Engine.Fail (deterministically: the
// error carries only the QP identity and retry count). A late original
// delivery racing its own retransmission is absorbed by the delivered
// flag, which also stands the timers down, and the attempt counter keeps a
// stale timer from double-retrying.
func (h *HCA) reliable(kind string, peer, src, dst int, size units.Bytes, send func() *sim.Signal, deliver func()) {
	if !h.fab.FaultsEnabled() {
		send().OnFire(deliver)
		return
	}
	// Computed only on faulty fabrics: MinLatency walks the chunk
	// recurrence (O(chunks)), too costly for the fault-free hot path.
	floor := h.fab.MinLatency(src, dst, size)
	probe := h.net.probe
	var req ReqID
	if probe != nil {
		h.reqSeq++
		req = ReqID{Node: h.node, Peer: peer, Kind: kind, Seq: h.reqSeq}
	}
	var (
		delivered bool // an attempt has delivered: timers stand down, duplicates are absorbed
		attempt   int
		try       func(n int)
	)
	try = func(n int) {
		attempt = n
		send().OnFire(func() {
			if delivered {
				if probe != nil && probe.Duplicate != nil {
					probe.Duplicate(req, n, h.eng.Now())
				}
				return // duplicate: a retransmission already delivered
			}
			delivered = true
			if probe != nil && probe.Delivered != nil {
				probe.Delivered(req, n, h.eng.Now())
			}
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
			h.mTimeouts.Inc()
			if n >= h.params.MaxRetries {
				h.mQPErrs.Inc()
				h.eng.Fail(fmt.Errorf(
					"ib: QP error on node %d (%s to peer %d): retry budget exhausted after %d retransmissions",
					h.node, kind, peer, n))
				return
			}
			h.Retransmits++
			h.mRetrans.Inc()
			if probe != nil && probe.Retransmit != nil {
				probe.Retransmit(req, n+1, h.eng.Now())
			}
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
	if !h.qps[peer] {
		panic(fmt.Sprintf("ib: RDMA write on node %d to unconnected peer %d", h.node, peer))
	}
	h.SendCount++
	h.mSends.Inc()
	p.Sleep(h.params.PostOverhead)
	if bus := h.fab.HostBus(h.node); bus != nil {
		// Doorbell + WQE PIO occupy the shared PCI-X bus.
		bus.Serve(h.params.DoorbellBusTime)
	}
	done := h.eng.NewSignal(fmt.Sprintf("rdma %d->%d", h.node, peer))
	h.eng.After(h.params.DoorbellLatency, func() {
		h.engine.ServeThen(h.params.ProcPerWQE, func() {
			h.reliable("rdma-write", peer, h.node, peer, size,
				func() *sim.Signal { return h.fab.Send(h.node, peer, size) },
				func() {
					// Remote HCA placement, then the upcall.
					h.net.hcas[peer].placeWrite(h.node, imm, size, done)
				})
		})
	})
	return done
}

// placeWrite runs receive-side placement of an arriving RDMA write on h —
// the DESTINATION adapter: receive processing on the HCA engine, then the
// handler upcall. done is the requester's local-completion signal; it
// fires at the placement-done instant.
func (h *HCA) placeWrite(src int, imm interface{}, size units.Bytes, done *sim.Signal) {
	h.RecvCount++
	h.mRecvs.Inc()
	h.engine.ServeThen(h.params.RecvProc, func() {
		if h.handler != nil {
			h.handler(Delivery{SrcNode: src, Imm: imm, Size: size})
		}
		done.Fire()
	})
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
	if !h.qps[peer] {
		panic(fmt.Sprintf("ib: RDMA read on node %d from unconnected peer %d", h.node, peer))
	}
	h.SendCount++
	h.mSends.Inc()
	p.Sleep(h.params.PostOverhead)
	if bus := h.fab.HostBus(h.node); bus != nil {
		bus.Serve(h.params.DoorbellBusTime)
	}
	done := h.eng.NewSignal(fmt.Sprintf("rdma-read %d<-%d", h.node, peer))
	h.eng.After(h.params.DoorbellLatency, func() {
		h.engine.ServeThen(h.params.ProcPerWQE, func() {
			// Read request travels to the peer (header-only), the peer's
			// HCA serves it from memory, and the payload flows back. Both
			// legs are requester-recovered: RC read responses are not
			// acknowledged, so a lost response is detected — and the whole
			// read reissued — by the requester's transport timer.
			h.reliable("rdma-read-req", peer, h.node, peer, 64,
				func() *sim.Signal { return h.fab.Send(h.node, peer, 64) },
				func() {
					remote := h.net.hcas[peer]
					remote.engine.ServeThen(remote.params.RecvProc, func() {
						h.reliable("rdma-read-resp", peer, peer, h.node, size,
							func() *sim.Signal { return h.fab.Send(peer, h.node, size) },
							func() {
								h.RecvCount++
								h.mRecvs.Inc()
								h.engine.ServeThen(h.params.RecvProc, func() {
									if h.handler != nil {
										h.handler(Delivery{SrcNode: peer, Imm: imm, Size: size})
									}
									done.Fire()
								})
							})
					})
				})
		})
	})
	return done
}

// PollCQ charges the calling process for one completion-queue poll: CQPoll
// if something was found, CQPollEmpty otherwise. The transport decides what
// "found" means; the HCA only prices the operation.
func (h *HCA) PollCQ(p *sim.Proc, found bool) {
	if found {
		p.Sleep(h.params.CQPoll)
		return
	}
	p.Sleep(h.params.CQPollEmpty)
}
