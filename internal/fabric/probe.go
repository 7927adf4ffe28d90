package fabric

// Invariant probes: observation hooks the campaign engine (internal/campaign)
// installs to watch fault behaviour from inside the fabric — every loss draw,
// every down-link stall, every message retirement — so behavioural contracts
// (conservation of messages/bytes, fault-window containment) can be checked
// against ground truth rather than inferred from end-to-end timings.
//
// Probes are a diagnostic mode with the same contract as metrics registries:
//
//   - zero cost when disabled — every call site is behind a single
//     `f.probe != nil` check and the default is nil;
//   - behaviour-neutral — installing a probe pins the coalescing fast path
//     off (a coalesced message never reports per-chunk events), which by the
//     coalescing exactness contract (see coalesce.go) leaves every delivery
//     time unchanged.

import (
	"repro/internal/topology"
	"repro/internal/units"
)

// Probe receives fabric-level fault and delivery observations. Any field may
// be nil; callbacks run in event context and must not block or mutate
// simulation state.
type Probe struct {
	// ChunkLost fires when a chunk is corrupted by a loss draw or killed at
	// a down link (both recovery models), at the simulated instant of the
	// loss, with the link it happened on.
	ChunkLost func(link topology.LinkID, at units.Time)
	// ChunkStalled fires on each hardware stall poll of a chunk parked at a
	// down link (HWRetry fabrics only).
	ChunkStalled func(link topology.LinkID, at units.Time)
	// MessageDelivered fires when a message's last chunk lands — the same
	// instant its done signal fires — with the message's payload size.
	MessageDelivered func(size units.Bytes, at units.Time)
	// MessageDropped fires when a message killed by an unrecovered fault
	// retires its last chunk (its done signal never fires).
	MessageDropped func(size units.Bytes, at units.Time)
}

// SetProbe installs (or with nil removes) the fabric's invariant probe.
// Installing one pins the coalescing fast path off so every message runs the
// exact chunk-level model; delivery times are identical either way. Call
// before the run starts.
func (f *Fabric) SetProbe(p *Probe) {
	f.probe = p
	if p != nil {
		f.coalesce = false
	}
}

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

// probeRetired reports one retired message to the probe, if any.
func (f *Fabric) probeRetired(size units.Bytes, aborted bool, at units.Time) {
	if f.probe == nil {
		return
	}
	if aborted {
		if f.probe.MessageDropped != nil {
			f.probe.MessageDropped(size, at)
		}
		return
	}
	if f.probe.MessageDelivered != nil {
		f.probe.MessageDelivered(size, at)
	}
}
