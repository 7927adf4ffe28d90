package ib

// Delivery probe: an observation hook on the RC recovery state machine in
// reliable(), installed by the campaign engine (internal/campaign) to check
// the paper's §3 exactly-once contract — every reliable request delivers its
// payload exactly once, no matter how many retransmissions raced it.
//
// Same contract as fabric probes (see fabric/probe.go): zero cost when
// disabled, and the hook lives exclusively on the faulty branch of
// reliable() — the fault-free fast path (Send(...).OnFire(deliver))
// is untouched, so clean runs remain byte-identical with a probe installed.

import (
	"repro/internal/units"
)

// DeliveryProbe receives RC transport observations. Delivered may be nil;
// it runs in event context and must not block or mutate simulation state.
type DeliveryProbe struct {
	// Delivered fires when a reliable request's payload is placed at the
	// destination for the first time — the instant deliver() runs. attempt
	// is the attempt index whose transfer was in flight when delivery
	// happened (0 = original send).
	Delivered func(req ReqID, attempt int, at units.Time)
}

// ReqID identifies one reliable request for probe reports.
type ReqID struct {
	Node int    // requester node
	Peer int    // peer node
	Kind string // "rdma-write", "rdma-read-req", "rdma-read-resp"
	Seq  uint64 // per-requester-HCA monotone sequence
}

// SetDeliveryProbe installs (or with nil removes) the network's RC delivery
// probe. Call before the run starts. The probe only observes fabrics with
// fault injection enabled — on a clean fabric reliable() takes the fast
// path and reports nothing.
func (n *Network) SetDeliveryProbe(p *DeliveryProbe) { n.probe = p }
