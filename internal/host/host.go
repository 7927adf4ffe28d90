// Package host models a compute node: a fixed set of CPU slots, a shared
// memory bus, and per-slot cache-pollution accounting.
//
// The paper attributes the InfiniBand 2-processes-per-node penalty to two
// host-side mechanisms (Section 4.2.1): host-based MPI processing competes
// with the application for CPU and cache, and two ranks contend for memory
// and I/O resources. This package provides exactly those mechanisms:
//
//   - Compute: a timed computation whose rate degrades while other slots on
//     the same node are simultaneously computing, proportional to the
//     workload's memory intensity (scaled-speedup LAMMPS is bandwidth-
//     sensitive; cache-resident CG is not).
//   - AddOverhead: a debt of extra host time (e.g. cache refill after MPI
//     matching and eager-buffer copies pollute the cache) charged to a
//     slot's next Compute call.
package host

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// Params configures a node.
type Params struct {
	// CPUs is the number of processor slots (the paper's nodes are dual
	// 3.06 GHz Xeons: 2).
	CPUs int
	// MemContention is the fractional slowdown per additional
	// concurrently-computing slot at memory intensity 1.0. A value of 0.3
	// means two fully memory-bound ranks each run at 1/1.3 speed.
	MemContention float64
	// CacheBytes is the per-CPU cache capacity available to application
	// working sets (L2+L3). Application models use it for cache-fit
	// speedup effects; the node itself does not interpret it.
	CacheBytes units.Bytes

	// Noise injects operating-system interference into Compute phases:
	// each slot independently loses NoiseFraction of its compute time in
	// bursts of NoiseBurst mean duration (exponentially distributed
	// spacing, deterministic per seed). Zero fraction disables it. Real
	// measurement studies — including the paper's, which averages four
	// runs per point — live with this; the simulator makes it optional
	// and reproducible.
	NoiseFraction float64
	NoiseBurst    units.Duration
	NoiseSeed     uint64
}

// Validate reports configuration errors.
func (p *Params) Validate() error {
	if p.CPUs < 1 {
		return fmt.Errorf("host: need at least 1 CPU, got %d", p.CPUs)
	}
	if p.MemContention < 0 {
		return fmt.Errorf("host: negative memory contention")
	}
	if p.CacheBytes < 0 {
		return fmt.Errorf("host: negative cache size")
	}
	if p.NoiseFraction < 0 || p.NoiseFraction >= 1 {
		return fmt.Errorf("host: noise fraction %v out of [0,1)", p.NoiseFraction)
	}
	if p.NoiseFraction > 0 && p.NoiseBurst <= 0 {
		return fmt.Errorf("host: noise enabled with non-positive burst")
	}
	return nil
}

// Node is one compute node.
type Node struct {
	eng    *sim.Engine
	id     int
	params Params

	active  int // slots currently inside Compute
	epoch   uint64
	changed *sim.Signal // replaced at every membership change

	debt      []units.Duration // per-slot overhead owed to the next Compute
	busyTotal []units.Duration // per-slot accumulated compute time
	noise     []*rng.Source    // per-slot noise stream (nil when disabled)
}

// NewNode creates a node with the given parameters.
func NewNode(eng *sim.Engine, id int, params Params) (*Node, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := &Node{
		eng:       eng,
		id:        id,
		params:    params,
		changed:   eng.NewSignal(fmt.Sprintf("node%d membership", id)),
		debt:      make([]units.Duration, params.CPUs),
		busyTotal: make([]units.Duration, params.CPUs),
	}
	if params.NoiseFraction > 0 {
		n.noise = make([]*rng.Source, params.CPUs)
		for s := range n.noise {
			n.noise[s] = rng.New(params.NoiseSeed ^ (uint64(id)<<20 + uint64(s) + 0x9e37))
		}
	}
	return n, nil
}

// noiseSteal samples the OS interference stolen from a compute phase of the
// given ideal duration: Poisson-arriving bursts with exponential lengths,
// tuned so the long-run average loss is NoiseFraction of compute time.
func (n *Node) noiseSteal(slot int, work units.Duration) units.Duration {
	if n.noise == nil || work <= 0 {
		return 0
	}
	src := n.noise[slot]
	burst := n.params.NoiseBurst.Seconds()
	rate := n.params.NoiseFraction / burst // events per second of compute
	var stolen float64
	for t := src.ExpFloat64(rate); t < work.Seconds(); t += src.ExpFloat64(rate) {
		stolen += src.ExpFloat64(1 / burst)
	}
	return units.FromSeconds(stolen)
}

// ID reports the node's id.
func (n *Node) ID() int { return n.id }

// Params returns the node's configuration.
func (n *Node) Params() Params { return n.params }

// slowdown reports the current rate divisor for a computation of the given
// memory intensity.
func (n *Node) slowdown(intensity float64) float64 {
	others := n.active - 1
	if others < 0 {
		others = 0
	}
	return 1 + n.params.MemContention*intensity*float64(others)
}

func (n *Node) membershipChanged() {
	n.epoch++
	old := n.changed
	n.changed = n.eng.NewSignal(fmt.Sprintf("node%d membership", n.id))
	old.Fire()
}

// AddOverhead charges extra host time to the slot's next Compute call. Used
// by MPI transports to model cache pollution and deferred protocol work
// that steals application time.
func (n *Node) AddOverhead(slot int, d units.Duration) {
	n.checkSlot(slot)
	if d < 0 {
		panic("host: negative overhead")
	}
	n.debt[slot] += d
}

// PendingOverhead reports the slot's unconsumed overhead debt.
func (n *Node) PendingOverhead(slot int) units.Duration {
	n.checkSlot(slot)
	return n.debt[slot]
}

// ComputeTotal reports the slot's accumulated wall-clock compute time.
func (n *Node) ComputeTotal(slot int) units.Duration {
	n.checkSlot(slot)
	return n.busyTotal[slot]
}

func (n *Node) checkSlot(slot int) {
	if slot < 0 || slot >= n.params.CPUs {
		panic(fmt.Sprintf("host: slot %d out of range [0,%d)", slot, n.params.CPUs))
	}
}

// Compute blocks the calling process for `work` of ideal CPU time plus any
// overhead debt, stretched by memory-bus contention with other slots that
// compute concurrently. intensity in [0,1] scales how sensitive this
// computation is to that contention.
//
// The implementation re-evaluates the rate whenever the set of active slots
// changes, so partial overlaps are accounted exactly: a rank that computes
// alone for the first half of its phase and shares the node for the second
// half pays contention only on the second half.
func (n *Node) Compute(p *sim.Proc, slot int, work units.Duration, intensity float64) {
	n.checkSlot(slot)
	if intensity < 0 || intensity > 1 {
		panic(fmt.Sprintf("host: intensity %v out of [0,1]", intensity))
	}
	work += n.debt[slot]
	n.debt[slot] = 0
	if work <= 0 {
		return
	}
	work += n.noiseSteal(slot, work)
	start := n.eng.Now()
	n.active++
	n.membershipChanged()
	defer func() {
		n.active--
		n.membershipChanged()
		n.busyTotal[slot] += n.eng.Now().Sub(start)
	}()

	remaining := work
	for remaining > 0 {
		slow := n.slowdown(intensity)
		span := remaining.Scale(slow)
		segStart := n.eng.Now()
		deadline := segStart.Add(span)
		epoch0 := n.epoch

		// One timer per segment; stale wakes (from earlier segments'
		// timers) just re-park inside the loop without allocating.
		timer := n.eng.NewSignal("compute timer")
		n.eng.At(deadline, timer.Fire)
		for n.eng.Now() < deadline && n.epoch == epoch0 {
			p.WaitAny(timer, n.changed)
		}

		elapsed := n.eng.Now().Sub(segStart)
		done := elapsed.Scale(1 / slow)
		if done >= remaining || n.eng.Now() >= deadline {
			return
		}
		remaining -= done
	}
}

// Cluster is a convenience collection of identical nodes.
type Cluster struct {
	Nodes []*Node
}

// NewCluster builds n identical nodes on one engine.
func NewCluster(eng *sim.Engine, n int, params Params) (*Cluster, error) {
	c := &Cluster{Nodes: make([]*Node, n)}
	for i := range c.Nodes {
		node, err := NewNode(eng, i, params)
		if err != nil {
			return nil, err
		}
		c.Nodes[i] = node
	}
	return c, nil
}
