// Package platform assembles complete simulated machines matching the
// paper's testbed (Table 1): identical dual-Xeon PCI-X compute nodes wired
// with either 4X InfiniBand (Voltaire HCA 400 + ISR 9600, MVAPICH 0.9.2) or
// Quadrics QsNetII Elan-4 (QM500 + QS5A, Quadrics MPI).
//
// All calibration constants live here, in one place, annotated with the
// anchor from the paper's text they were tuned against (see DESIGN.md §4
// and the calibration tests in this package).
package platform

import (
	"fmt"

	"repro/internal/elan"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/mpi/mvib"
	"repro/internal/mpi/tports"
	"repro/internal/sim"
	"repro/internal/units"
)

// Network selects the interconnect under test.
type Network int

// The two interconnects of the paper.
const (
	InfiniBand4X Network = iota
	QuadricsElan4
)

// String implements fmt.Stringer.
func (n Network) String() string {
	switch n {
	case InfiniBand4X:
		return "4X InfiniBand"
	case QuadricsElan4:
		return "Quadrics Elan-4"
	default:
		return fmt.Sprintf("Network(%d)", int(n))
	}
}

// Short returns the compact label used in result tables.
func (n Network) Short() string {
	if n == InfiniBand4X {
		return "IB"
	}
	return "Elan4"
}

// Networks lists both interconnects, in the order the paper plots them.
var Networks = []Network{QuadricsElan4, InfiniBand4X}

// IBFabricParams returns the physical-layer model of the 4X InfiniBand
// fabric: 1 GB/s data rate per direction (10 Gb/s signalling, 8b/10b),
// 2 KB MTU, deterministic destination routing, multi-stage 96-port
// chassis, and an effective PCI-X DMA ceiling below 900 MB/s.
func IBFabricParams() fabric.Params {
	return fabric.Params{
		LinkBandwidth:  1000 * units.MBps,
		WireLatency:    50 * units.Nanosecond,
		ChassisLatency: 200 * units.Nanosecond,
		MTU:            2 * units.KiB,
		PacketOverhead: 30, // LRH+BTH+ICRC+VCRC per packet
		HostBandwidth:  880 * units.MBps,
		HostLatency:    400 * units.Nanosecond,
		Adaptive:       false,
	}
}

// IBRadix is the port count of the ISR 9600 chassis.
const IBRadix = 96

// ElanFabricParams returns the physical-layer model of the QsNetII fabric:
// a wider, slower physical layer (the paper's words) delivering ~1.3 GB/s
// per direction into a 64-port federated switch with hardware-adaptive
// routing, and a more efficient 64-bit PCI-X DMA engine.
func ElanFabricParams() fabric.Params {
	return fabric.Params{
		LinkBandwidth:  1300 * units.MBps,
		WireLatency:    30 * units.Nanosecond,
		ChassisLatency: 150 * units.Nanosecond, // 3 internal Elite4 stages
		MTU:            2 * units.KiB,
		PacketOverhead: 24,
		HostBandwidth:  940 * units.MBps,
		HostLatency:    400 * units.Nanosecond,
		Adaptive:       true,
		// QsNetII recovers from CRC failures in link-level hardware: the
		// sending Elite retries the packet on the same hop, invisibly to
		// the host — no transport timer, no endpoint retransmission. The
		// delay approximates the retry turnaround of the 1.3 GB/s links.
		HWRetry:      true,
		HWRetryDelay: 500 * units.Nanosecond,
	}
}

// ElanRadix is the port count of the QS5A node-level chassis.
const ElanRadix = 64

// Machine is a fully assembled simulated cluster running one MPI job.
type Machine struct {
	Network Network
	Eng     *sim.Engine
	Fab     *fabric.Fabric
	World   *mpi.World

	// Exactly one of these is non-nil, matching Network.
	IB   *mvib.Transport
	Elan *tports.Transport
}

// Options configures a machine.
type Options struct {
	Network Network
	Ranks   int
	PPN     int

	// Metrics, when non-nil, attaches an observability registry to the
	// machine's engine: every layer records counters/histograms into it,
	// and — if the registry has tracing enabled — a timeline track labelled
	// Label. Nil (the default) disables all recording; simulated behaviour
	// is identical either way.
	Metrics *metrics.Registry
	// Label names the machine's timeline track (e.g. "pingpong IB").
	Label string

	// DisableCoalescing forces the fabric to run the fully-expanded
	// chunk-level event model even without a metrics registry. Delivery
	// times are identical either way (see fabric.SetCoalescing); this
	// exists so equivalence tests and A/B measurements can pin the slow
	// path explicitly.
	DisableCoalescing bool

	// FaultSpec, when non-empty, installs a fault plan on the machine's
	// fabric (see internal/fault for the spec language). Faults are
	// simulated-time events from a seeded plan, so a faulty run is exactly
	// as deterministic as a clean one. Empty (the default) leaves fault
	// injection disabled and the event stream untouched.
	FaultSpec string

	// Radix overrides the switch port count (0 keeps the platform default:
	// IBRadix or ElanRadix). Shrinking the radix below the node count
	// forces a 2-level Clos with few spines — the configuration
	// degraded-fabric experiments use to study spine-failure route-around.
	Radix int

	// Optional hooks to perturb parameters for ablation studies. Called
	// with the calibrated defaults before construction.
	TuneFabric func(*fabric.Params)
	TuneMPI    func(*mpi.Config)
	TuneIB     func(*ib.Params, *mvib.Params)
	TuneElan   func(*elan.Params)
}

// New assembles a machine: engine, fabric, NICs, transport, and MPI world.
func New(opts Options) (*Machine, error) {
	if opts.Ranks < 1 {
		return nil, fmt.Errorf("platform: need at least 1 rank")
	}
	if opts.PPN == 0 {
		opts.PPN = 1
	}
	cfg := mpi.DefaultConfig(opts.Ranks, opts.PPN)
	if opts.TuneMPI != nil {
		opts.TuneMPI(&cfg)
	}
	nodes := cfg.NodesFor()

	// Resolve the network-specific parameter sets up front; none of them
	// depend on the engine or fabric.
	var (
		fp    fabric.Params
		radix int
		hp    ib.Params
		tp    mvib.Params
		ep    elan.Params
	)
	switch opts.Network {
	case InfiniBand4X:
		fp, radix = IBFabricParams(), IBRadix
		hp, tp = ib.DefaultParams(), mvib.DefaultParams()
		if opts.TuneFabric != nil {
			opts.TuneFabric(&fp)
		}
		if opts.TuneIB != nil {
			opts.TuneIB(&hp, &tp)
		}
	case QuadricsElan4:
		fp, radix = ElanFabricParams(), ElanRadix
		ep = elan.DefaultParams()
		if opts.TuneFabric != nil {
			opts.TuneFabric(&fp)
		}
		if opts.TuneElan != nil {
			opts.TuneElan(&ep)
		}
	default:
		return nil, fmt.Errorf("platform: unknown network %v", opts.Network)
	}
	if opts.Radix > 0 {
		radix = opts.Radix
	}

	eng := sim.NewEngine()
	if opts.Metrics != nil {
		label := opts.Label
		if label == "" {
			label = opts.Network.Short()
		}
		eng.SetMetrics(opts.Metrics, label)
	}

	fab, err := fabric.New(eng, nodes, radix, fp)
	if err != nil {
		return nil, err
	}
	if opts.DisableCoalescing {
		fab.SetCoalescing(false)
	}
	if err := fault.InstallSpec(opts.FaultSpec, eng, fab); err != nil {
		return nil, err
	}

	m := &Machine{Network: opts.Network, Eng: eng, Fab: fab}
	switch opts.Network {
	case InfiniBand4X:
		m.IB = mvib.New(ib.NewNetwork(eng, fab, hp), tp)
		m.World, err = mpi.NewWorld(eng, cfg, m.IB)
	case QuadricsElan4:
		ppn := cfg.PPN
		net := elan.NewNetwork(eng, fab, ep, func(rank int) int { return rank / ppn })
		m.Elan = tports.New(net)
		m.World, err = mpi.NewWorld(eng, cfg, m.Elan)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Run executes the app on the machine's world, then folds end-of-run
// utilization and occupancy levels into the attached metrics registry (a
// no-op without one).
func (m *Machine) Run(app func(*mpi.Rank)) (*mpi.Result, error) {
	res, err := m.World.Run(app)
	if m.Eng.Metrics() != nil {
		m.Fab.FlushMetrics()
		if m.IB != nil {
			m.IB.Network().FlushMetrics()
		}
		if m.Elan != nil {
			m.Elan.Network().FlushMetrics()
		}
	}
	return res, err
}
