// Package mpi implements a simulated MPI library: ranks as simulated
// processes, two-sided matching semantics, nonblocking requests, and
// collectives — over pluggable network transports.
//
// Two transports exist, mirroring the paper's two MPI implementations:
//
//   - internal/mpi/mvib: MVAPICH-style MPI over the InfiniBand verbs model
//     (internal/ib). Eager messages flow through per-peer RDMA buffer rings
//     with credit flow control; large messages use an RTS/CTS rendezvous.
//     All matching and all protocol processing run on the HOST, and only
//     inside MPI calls — no independent progress.
//   - internal/mpi/tports: Quadrics-style MPI over the Tports model
//     (internal/elan). Matching and rendezvous run on the NIC, giving
//     independent progress and overlap.
//
// Intra-node communication (2 processes per node) uses a shared-memory
// channel implemented here in the core, identically for both transports:
// the paper's nodes are identical, so intra-node behaviour must not be a
// differentiator.
package mpi

import (
	"fmt"

	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/units"
)

// AnySource matches a receive against any sender. Supported only at 1
// process per node (with a shared-memory device in play, wildcard receives
// would need cross-device matching, which neither this model nor the
// paper's workloads require).
const AnySource = -1

// AnyTag matches a receive against any tag.
const AnyTag = -1

// Context ids partition matching: user point-to-point traffic and
// collective traffic never match each other.
const (
	CtxPointToPoint = 0
	CtxCollective   = 1
)

// Config describes an MPI job.
type Config struct {
	// Ranks is the total number of MPI processes.
	Ranks int
	// PPN is processes per node; ranks are block-mapped (ranks 0..PPN-1
	// on node 0, etc.).
	PPN int
	// Node configures every compute node.
	Node host.Params

	// CallOverhead is host CPU time charged per MPI call (library entry,
	// argument checking, request bookkeeping).
	CallOverhead units.Duration
	// CopyRate is the host memcpy rate for MPI-internal copies (eager
	// buffer staging, shared-memory transfers, unexpected drains).
	CopyRate units.Rate
	// ShmLatency is the fixed one-way latency of the intra-node
	// shared-memory channel.
	ShmLatency units.Duration
	// ReduceRate is the rate at which a rank combines reduction operands.
	ReduceRate units.Rate
	// PollutionPerMsg and PollutionPerKB charge cache-refill time to the
	// application's next compute phase for every message the HOST copies
	// or matches (Section 4.2.1 of the paper: host-side MPI processing
	// pollutes the cache). Transports that process messages on the NIC
	// avoid these charges by construction.
	PollutionPerMsg units.Duration
	PollutionPerKB  units.Duration
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Ranks < 1 {
		return fmt.Errorf("mpi: need at least 1 rank")
	}
	if c.PPN < 1 || c.PPN > c.Node.CPUs {
		return fmt.Errorf("mpi: PPN %d out of range [1,%d]", c.PPN, c.Node.CPUs)
	}
	if c.CopyRate <= 0 || c.ReduceRate <= 0 {
		return fmt.Errorf("mpi: non-positive copy or reduce rate")
	}
	return nil
}

// NodesFor reports how many nodes the job occupies.
func (c *Config) NodesFor() int { return (c.Ranks + c.PPN - 1) / c.PPN }

// DefaultConfig returns job parameters for the paper's platform (dual-Xeon
// PowerEdge 1750 nodes).
func DefaultConfig(ranks, ppn int) Config {
	return Config{
		Ranks: ranks,
		PPN:   ppn,
		Node: host.Params{
			CPUs:          2,
			MemContention: 0.25,
			CacheBytes:    units.Bytes(1536 * units.KiB), // 512 KiB L2 + 1 MiB L3
		},
		CallOverhead:    80 * units.Nanosecond,
		CopyRate:        1500 * units.MBps,
		ShmLatency:      500 * units.Nanosecond,
		ReduceRate:      2500 * units.MBps,
		PollutionPerMsg: 120 * units.Nanosecond,
		PollutionPerKB:  180 * units.Nanosecond,
	}
}

// Status describes a completed request. Src names its peer: the sender
// of a receive, the destination of a send.
type Status struct {
	Src     int
	Tag     int
	Size    units.Bytes
	Payload interface{}
}

// Request is a nonblocking operation handle. Its completion signal lives
// inside it, so a request is one allocation. Requests come from their
// rank's pool (Rank.NewRequest), and the call that reports a request
// complete releases it back there: Wait, each element of Waitall, the
// index Waitany returns, or a Test that returns true. The handle is then
// dead, as MPI_Wait sets it to MPI_REQUEST_NULL; Waitall and Waitany set
// the slots they release to nil. Using a released request panics, naming
// *mpi.Request.
type Request struct {
	done   sim.Signal
	live   sim.Live
	isRecv bool
	// status is set when the request completes. Until then a traced
	// request's status.Payload holds its *reqSpan: a field of its own
	// would move every request, traced or not, from 112 to 128 bytes.
	status Status
}

// reqSpan is a traced request's timeline span: from its posting until it
// completes, on its rank's row.
type reqSpan struct {
	rank   *Rank
	name   string
	posted units.Time
}

// record records the span as ending at end. No-op on a nil span.
func (s *reqSpan) record(end units.Time) {
	if s != nil {
		s.rank.world.track.Span(sim.TidRank+int64(s.rank.id), s.name, "mpi", s.posted, end)
	}
}

// Done exposes the completion signal (transport use).
func (q *Request) Done() *sim.Signal {
	q.live.Check(q)
	return &q.done
}

// Completed reports whether the request has finished.
func (q *Request) Completed() bool {
	q.live.Check(q)
	return q.done.Fired()
}

// Complete marks a request finished with the given status (transport
// use). src is the request's peer: the sender for a receive, the
// destination for a send. A traced request records its span here.
func (q *Request) Complete(src, tag int, size units.Bytes, payload interface{}) {
	span, _ := q.status.Payload.(*reqSpan)
	q.status = Status{Src: src, Tag: tag, Size: size, Payload: payload}
	q.done.Fire()
	span.record(q.done.FiredAt())
}

// Status returns the completion status; valid only after the request is
// done and before the call that reports it complete releases it.
func (q *Request) Status() Status {
	q.live.Check(q)
	if !q.done.Fired() {
		panic("mpi: Status on incomplete request")
	}
	return q.status
}

// Transport is a network-level MPI protocol engine. Intra-node traffic
// never reaches it; the core's shared-memory channel handles that.
type Transport interface {
	// Attach binds the transport to a constructed world (install
	// handlers, establish connections, size buffer pools).
	Attach(w *World)
	// NetSend starts a send to a rank on another node. key identifies
	// the application buffer for registration-cache purposes.
	NetSend(r *Rank, dst, tag, ctx int, size units.Bytes, payload interface{}, key uint64) *Request
	// NetRecv posts a receive. src is a concrete rank or AnySource.
	NetRecv(r *Rank, src, tag, ctx int, key uint64) *Request
	// Progress advances host-side protocol state for the rank. Called
	// from the rank's own process context inside MPI calls.
	Progress(r *Rank)
}
