package fabric

// Fault injection: per-link fault state and the recovery semantics the
// physical layer owns.
//
// A LinkFault describes the condition currently active on one
// unidirectional link: taken down entirely, derated (reduced bandwidth
// and/or extra latency), or lossy (each chunk serialized on the link is
// corrupted with probability LossProb). Fault state changes only through
// SetLinkFault, which fault plans (internal/fault) drive from ordinary
// simulation events — never wall clock — so a faulty run is exactly as
// deterministic as a clean one.
//
// What happens to an affected chunk is a per-fabric property, matching the
// recovery architectures the paper contrasts (Section 3):
//
//   - Params.HWRetry (the Elan model): the link-level hardware detects the
//     CRC failure and retries the chunk on the same hop after HWRetryDelay,
//     invisibly to the host. A chunk arriving at a down link stalls,
//     retrying every HWRetryDelay until the link returns; a chunk choosing
//     a spine adaptively routes around spines with down links (see
//     chooseSpine).
//   - Otherwise (the IB model): a corrupted or blackholed chunk kills the
//     whole message — the fabric delivers nothing and the message's done
//     signal never fires. Recovery is the transport's problem: the IB HCA
//     model arms RC retransmission timers (internal/ib) exactly as the
//     real host channel adapter does.
//
// Loss draws come from per-link RNG streams (internal/rng) seeded from the
// fault seed and the link id, so the outcome of a faulty run depends only
// on (plan, seed) and the per-link arrival order — not on global event
// interleaving across links, worker count, or whether unrelated traffic
// was coalesced.

import (
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/units"
)

// LinkFault is the fault condition active on one link. The zero value
// means "healthy".
type LinkFault struct {
	// Down blackholes the link: chunks arriving at it are dropped (IB
	// model) or stall-and-retry until it recovers (HWRetry model).
	Down bool
	// BandwidthScale derates the link's serialization rate; 0 or 1 means
	// nominal, 0.5 means half rate.
	BandwidthScale float64
	// ExtraLatency is added to the link's post-serialization latency.
	ExtraLatency units.Duration
	// LossProb corrupts each chunk serialized on the link with this
	// probability (drawn from the link's private RNG stream).
	LossProb float64
}

// Active reports whether the fault perturbs the link at all.
func (lf *LinkFault) Active() bool {
	return lf.Down || lf.LossProb > 0 || lf.ExtraLatency > 0 ||
		(lf.BandwidthScale != 0 && lf.BandwidthScale != 1)
}

// EnableFaults switches the fabric into fault-injection mode: per-link
// fault slots are allocated and per-link loss RNG streams are seeded from
// seed. Idempotent reset: calling again clears all faults and reseeds.
// Must be called before the run starts (fault plans call it at install).
func (f *Fabric) EnableFaults(seed uint64) {
	n := f.clos.NumLinks()
	f.faults = make([]LinkFault, n)
	f.lossRNG = make([]*rng.Source, n)
	for i := range f.lossRNG {
		// Decorrelate per-link streams: same mixing idea as splitmix64's
		// golden-ratio increment, applied to the link id.
		f.lossRNG[i] = rng.New(seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
	}
	f.faultSeed = seed
	f.faultsOn = true
}

// FaultsEnabled reports whether the fabric is in fault-injection mode.
// Transports consult this to decide whether to arm recovery machinery
// (retransmission timers change the event stream, so they are armed only
// when faults can actually occur — default runs stay byte-identical).
func (f *Fabric) FaultsEnabled() bool { return f.faultsOn }

// SetLinkFault installs (or, with the zero LinkFault, clears) the fault
// condition on one link, effective immediately. An open coalescing window
// is expanded back to the exact chunk model first, whatever link it uses,
// so the fault applies to every in-flight chunk individually.
func (f *Fabric) SetLinkFault(id topology.LinkID, lf LinkFault) {
	if !f.faultsOn {
		panic("fabric: SetLinkFault before EnableFaults")
	}
	if f.open != nil {
		f.open.expand()
	}
	f.faults[id] = lf
	if lf.Active() {
		f.faultStats.FaultWindows++
	}
}

// ClearLinkFault restores the link to health.
func (f *Fabric) ClearLinkFault(id topology.LinkID) {
	f.SetLinkFault(id, LinkFault{})
}

// LinkFaultState returns the fault currently installed on the link (the
// zero value when healthy or when fault injection is disabled).
func (f *Fabric) LinkFaultState(id topology.LinkID) LinkFault {
	if !f.faultsOn {
		return LinkFault{}
	}
	return f.faults[id]
}

// FaultStats reports fault-injection totals since construction.
type FaultStats struct {
	// ChunksLost counts chunks corrupted by a loss draw (both recovery
	// models) or killed at a down link (drop model).
	ChunksLost uint64
	// ChunksRetried counts hardware link-level retries (HWRetry fabrics
	// only): lost-chunk retransmissions plus down-link stall polls.
	ChunksRetried uint64
	// ChunksRerouted counts chunks whose adaptive spine choice skipped at
	// least one down spine.
	ChunksRerouted uint64
	// MessagesDropped counts messages killed by an unrecovered chunk
	// (non-HWRetry fabrics only).
	MessagesDropped uint64
	// FaultWindows counts fault activations (SetLinkFault calls installing
	// an active fault).
	FaultWindows uint64
}

// FaultStats returns the fault-injection totals.
func (f *Fabric) FaultStats() FaultStats { return f.faultStats }

// pathFaulted reports whether any link of the path currently carries an
// active fault. Used to veto the coalescing fast path: a faulty link's
// behaviour (loss draws, derating, retries) is defined chunk by chunk, so
// affected messages must run through the exact chunk model. For adaptive
// spine-crossing paths the placeholder up/down stages are checked too,
// which is conservative — such paths never coalesce anyway.
func (f *Fabric) pathFaulted(pt *path) bool {
	if !f.faultsOn {
		return false
	}
	for i := 0; i < int(pt.n); i++ {
		if l := f.hop(pt, i).link; l >= 0 && f.faults[l].Active() {
			return true
		}
	}
	return false
}

// linkFault resolves the fault condition currently governing link, or nil
// when the link is healthy (or not a fabric link).
func (f *Fabric) linkFault(link topology.LinkID) *LinkFault {
	if !f.faultsOn || link < 0 {
		return nil
	}
	if x := &f.faults[link]; x.Active() {
		return x
	}
	return nil
}

// chooseSpine picks the spine for one chunk of an adaptive fabric:
// least-loaded uplink, ties to the lowest index — exactly
// leastLoadedSpine's policy — but skipping spines that are unreachable
// because their up or down link (for this leaf pair) is down. rerouted
// reports whether any spine was skipped; if every spine is down the
// original choice is returned un-skipped and the caller's down-link
// handling stalls the chunk until one recovers.
func (f *Fabric) chooseSpine(srcLeaf, dstLeaf int) (spine int, rerouted bool) {
	if !f.faultsOn {
		return f.leastLoadedSpine(srcLeaf), false
	}
	down := func(id topology.LinkID) bool {
		lf := f.linkFault(id)
		return lf != nil && lf.Down
	}
	best, bestAt := -1, units.Forever
	skipped := false
	for s := 0; s < f.clos.Spines; s++ {
		if down(f.clos.Up(srcLeaf, s)) || down(f.clos.Down(s, dstLeaf)) {
			skipped = true
			continue
		}
		if at := f.stageTab[f.clos.Up(srcLeaf, s)].srv.BusyUntil(); at < bestAt {
			best, bestAt = s, at
		}
	}
	if best < 0 {
		return f.leastLoadedSpine(srcLeaf), false
	}
	return best, skipped
}

// dropMessage kills cs's whole message: the chunk is retired without
// forwarding, and the message is marked aborted so its done signal never
// fires once every chunk has drained. Chunks of the message already past
// this hop (or behind it) continue to consume link time — the bytes were
// on the wire — but deliver nothing.
func (f *Fabric) dropMessage(cs *chunkState) {
	ms := cs.ms
	f.putChunk(cs)
	if !ms.aborted {
		ms.aborted = true
		f.faultStats.MessagesDropped++
	}
	ms.chunkDelivered()
}
