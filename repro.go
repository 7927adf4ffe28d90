// Package repro is a simulation study of two cluster interconnects — 4X
// InfiniBand (Voltaire/MVAPICH) and Quadrics QsNetII Elan-4 (Tports) — that
// reproduces Brightwell, Doerfler & Underwood, "A Comparison of 4X
// InfiniBand and Quadrics Elan-4 Technologies" (IEEE CLUSTER 2004).
//
// The package is the public facade over the simulator:
//
//   - Build a Cluster on either interconnect and run MPI-style programs on
//     it (Rank offers Send/Recv/Isend/Irecv/Wait, collectives, and timed
//     Compute phases).
//   - Run the paper's micro-benchmarks (PingPong, Streaming, BEff).
//   - Regenerate any of the paper's tables and figures (Experiments,
//     RunExperiment), or price networks with the cost model.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results against the paper's anchors.
package repro

import (
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/microbench"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/units"
)

// Network selects the interconnect of a Cluster.
type Network = platform.Network

// The two interconnects under study.
const (
	InfiniBand4X  = platform.InfiniBand4X
	QuadricsElan4 = platform.QuadricsElan4
)

// Networks lists both interconnects in the paper's plotting order.
var Networks = platform.Networks

// Core MPI-facing types, aliased from the engine so user code needs only
// this package.
type (
	// Rank is one MPI process of a running job.
	Rank = mpi.Rank
	// Request is a nonblocking operation handle. The call that reports
	// it complete (Wait, Waitall, Waitany, or a Test that returns true)
	// releases it back to its rank, as MPI_Wait sets the handle to
	// MPI_REQUEST_NULL: take the status from Wait, and use the handle no
	// further.
	Request = mpi.Request
	// Status describes a completed request; Src is its peer (the
	// destination, for a send).
	Status = mpi.Status
	// Result summarizes a completed run.
	Result = mpi.Result
)

// AnySource matches receives from any sender (1 process per node only).
const AnySource = mpi.AnySource

// Size and time units.
type (
	// Bytes is a data size.
	Bytes = units.Bytes
	// Duration is a simulated time span.
	Duration = units.Duration
	// Rate is a data rate.
	Rate = units.Rate
)

// Re-exported unit constants.
const (
	KiB = units.KiB
	MiB = units.MiB

	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second

	MBps = units.MBps
	GBps = units.GBps
)

// Cluster is a simulated machine: identical dual-CPU PCI-X nodes wired with
// the chosen interconnect, running one MPI job.
type Cluster struct {
	machine *platform.Machine
}

// NewCluster builds a cluster of ranks MPI processes at ppn processes per
// node on the given interconnect, with the calibrated 2004-platform
// parameters.
func NewCluster(network Network, ranks, ppn int) (*Cluster, error) {
	m, err := platform.New(platform.Options{Network: network, Ranks: ranks, PPN: ppn})
	if err != nil {
		return nil, err
	}
	return &Cluster{machine: m}, nil
}

// Run executes app once per rank, to completion, and reports elapsed
// simulated time. It may be called again on the same cluster; simulated
// time accumulates (useful for warmup/measurement splits).
func (c *Cluster) Run(app func(r *Rank)) (*Result, error) {
	return c.machine.Run(app)
}

// Network reports the cluster's interconnect.
func (c *Cluster) Network() Network { return c.machine.Network }

// Profile types, re-exported for post-run analysis.
type (
	// Profile summarizes where a run's time went and what its message
	// population looked like.
	Profile = mpi.Profile
	// SizeClass is one bucket of the sent-message size histogram.
	SizeClass = mpi.SizeClass
)

// Profile reports the communication profile of everything run on this
// cluster so far.
func (c *Cluster) Profile() *Profile { return c.machine.World.Profile() }

// Comm is an MPI communicator (see Rank.CommWorld and Comm.Split).
type Comm = mpi.Comm

// TraceEvent is one record of a rank's activity when tracing is enabled.
type TraceEvent = mpi.TraceEvent

// EnableTrace records up to capacity events (newest retained) across
// subsequent Run calls.
func (c *Cluster) EnableTrace(capacity int) { c.machine.World.EnableTrace(capacity) }

// Trace returns recorded events in time order plus the total observed.
func (c *Cluster) Trace() ([]TraceEvent, uint64) { return c.machine.World.Trace() }

// FormatTrace renders trace events as a per-rank timeline.
func FormatTrace(events []TraceEvent) string { return mpi.FormatTrace(events) }

// Micro-benchmark re-exports (Figure 1).
type (
	// PingPongPoint is a latency/bandwidth measurement at one size.
	PingPongPoint = microbench.PingPongPoint
	// StreamingPoint is a streaming-bandwidth measurement at one size.
	StreamingPoint = microbench.StreamingPoint
	// BEffResult is an effective-bandwidth (b_eff) measurement.
	BEffResult = microbench.BEffResult
)

// PingPong measures average one-way latency between two nodes for each
// message size (the Pallas PingPong method).
func PingPong(network Network, sizes []Bytes, iters int) ([]PingPongPoint, error) {
	return microbench.PingPong(platform.Options{Network: network}, sizes, iters)
}

// Streaming measures sustained unidirectional bandwidth with `window`
// messages in flight.
func Streaming(network Network, sizes []Bytes, window, iters int) ([]StreamingPoint, error) {
	return microbench.Streaming(platform.Options{Network: network}, sizes, window, iters)
}

// BEff measures the effective bandwidth of a job of the given size.
func BEff(network Network, ranks, itersPerSize int, seed uint64) (*BEffResult, error) {
	return microbench.BEff(platform.Options{Network: network}, ranks, itersPerSize, seed)
}

// DefaultSizes returns the paper's message-size sweep (0 B to 4 MB).
func DefaultSizes() []Bytes { return microbench.DefaultSizes() }

// ExperimentInfo identifies one reproducible table or figure.
type ExperimentInfo struct {
	ID    string
	Title string
}

// Experiments lists every reproducible artifact (tables 1-3, figures 1-8,
// and the extension experiments).
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range experiments.All() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	return out
}

// RunExperiment regenerates one artifact and returns its rendered tables.
// Quick mode shrinks sweeps for smoke runs.
func RunExperiment(id string, quick bool) (string, error) {
	e, err := experiments.Get(id)
	if err != nil {
		return "", err
	}
	res, err := e.Run(experiments.Options{Quick: quick})
	if err != nil {
		return "", err
	}
	return res.String(), nil
}

// Cost-model re-exports (Tables 2-3, Figure 7).
type (
	// PriceList holds the April 2004 component prices.
	PriceList = cost.PriceList
	// PricedNetwork is a priced interconnect design.
	PricedNetwork = cost.Network
	// USD is a price in dollars.
	USD = cost.USD
)

// Prices returns the paper's list prices (assumed entries flagged).
func Prices() PriceList { return cost.April2004() }

// PriceElan prices a QsNetII network for the given node count.
func PriceElan(p PriceList, nodes int) (*PricedNetwork, error) {
	return cost.ElanNetwork(p, nodes)
}

// PriceIB prices a homogeneous InfiniBand network (radix 24, 96, or 288).
func PriceIB(p PriceList, nodes, radix int) (*PricedNetwork, error) {
	return cost.IBNetwork(p, nodes, radix)
}

// PriceIBCombo prices the cheapest 24/288-port InfiniBand design.
func PriceIBCombo(p PriceList, nodes int) (*PricedNetwork, error) {
	return cost.IBComboNetwork(p, nodes)
}
