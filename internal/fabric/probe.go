package fabric

// Invariant probes: observation hooks the campaign engine (internal/campaign)
// installs to watch fault behaviour from inside the fabric — every loss draw
// and every down-link stall, at its instant and link — so fault-window
// containment can be checked against ground truth rather than inferred from
// end-to-end timings. Message retirement needs no hook: the fabric counts it
// (see Retired).
//
// Probes are a diagnostic mode with the same contract as metrics registries:
//
//   - zero cost when disabled — every call site is behind a single
//     `f.probe != nil` check and the default is nil;
//   - behaviour-neutral — callbacks only observe, and neither a probe nor
//     a registry changes whether a coalescing window forms. Windows never
//     form on a path with a faulted link, and SetLinkFault expands the
//     open window, whatever link it faults, before the fault applies, so
//     every loss and stall happens in the chunk model, where it is
//     reported.

import (
	"repro/internal/topology"
	"repro/internal/units"
)

// Probe receives fabric-level fault observations. Either field may be nil;
// callbacks run in event context and must not block or mutate simulation
// state.
type Probe struct {
	// ChunkLost fires when a chunk is corrupted by a loss draw or killed at
	// a down link (both recovery models), at the simulated instant of the
	// loss, with the link it happened on.
	ChunkLost func(link topology.LinkID, at units.Time)
	// ChunkStalled fires on each hardware stall poll of a chunk parked at a
	// down link (HWRetry fabrics only).
	ChunkStalled func(link topology.LinkID, at units.Time)
}

// SetProbe installs (or with nil removes) the fabric's invariant probe.
// Call before the run starts.
func (f *Fabric) SetProbe(p *Probe) { f.probe = p }

// probeLost reports one lost chunk to the probe, if any.
func (f *Fabric) probeLost(link topology.LinkID, at units.Time) {
	if f.probe != nil && f.probe.ChunkLost != nil {
		f.probe.ChunkLost(link, at)
	}
}

// probeStalled reports one down-link stall poll to the probe, if any.
func (f *Fabric) probeStalled(link topology.LinkID, at units.Time) {
	if f.probe != nil && f.probe.ChunkStalled != nil {
		f.probe.ChunkStalled(link, at)
	}
}
