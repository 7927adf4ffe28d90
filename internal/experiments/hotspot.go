package experiments

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

func init() {
	register("xroute", "Extension: adaptive vs deterministic routing under permutation traffic", runXRoute)
}

// runXRoute isolates a mechanism the paper's platforms differ in but its
// micro-benchmarks never isolate: QsNetII routes adaptively per packet,
// while InfiniBand subnet managers install static destination routes. Under
// random permutation traffic on a two-level fat tree, static routing
// collides flows on spine up-links; adaptive routing steers around them.
//
// To separate routing from everything else, the IB case is ALSO run with
// adaptive routing enabled (counterfactual hardware), so three columns:
// Elan, IB, and IB+adaptive.
func runXRoute(o Options) (*Result, error) {
	nodeCounts := []int{64, 96, 128}
	iters := 6
	size := units.Bytes(256 * units.KiB)
	if o.Quick {
		nodeCounts = []int{64}
		iters = 2
	}

	r := &Result{ID: "xroute", Title: "Permutation traffic across the spine: aggregate MB/s"}
	id := func(config string, nodes int) string { return fmt.Sprintf("%s nodes=%d", config, nodes) }
	measure := func(config string, net platform.Network, forceAdaptive bool, nodes int) point {
		return point{id(config, nodes), func(base platform.Options) ([]float64, error) {
			base.Network, base.Ranks, base.PPN = net, nodes, 1
			if forceAdaptive {
				base.TuneFabric = func(p *fabric.Params) { p.Adaptive = true }
			}
			m, err := platform.New(base)
			if err != nil {
				return nil, err
			}
			// Fixed random permutation, same for every configuration. Each
			// rank streams a window of messages so flows run at line rate —
			// only then does spine routing matter.
			const window = 8
			perm := derangement(nodes, 99)
			inv := make([]int, nodes)
			for i, v := range perm {
				inv[v] = i
			}
			res, err := m.Run(func(r *mpi.Rank) {
				for it := 0; it < iters; it++ {
					reqs := make([]*mpi.Request, 0, 2*window)
					for w := 0; w < window; w++ {
						reqs = append(reqs, r.Irecv(inv[r.ID()], it))
						reqs = append(reqs, r.Isend(perm[r.ID()], it, size))
					}
					r.Waitall(reqs...)
				}
				r.Barrier()
			})
			if err != nil {
				return nil, err
			}
			bytes := float64(nodes*iters*window) * float64(size)
			return []float64{bytes / res.Elapsed.Seconds() / 1e6}, nil // aggregate MB/s
		}}
	}
	var points []point
	for _, n := range nodeCounts {
		points = append(points,
			measure("Elan4", platform.QuadricsElan4, false, n),
			measure("IB static", platform.InfiniBand4X, false, n),
			measure("IB adaptive", platform.InfiniBand4X, true, n))
	}
	vals := runPoints(o, r, points)
	t := newTable("Extension X-8", "nodes", "Elan4 (adaptive)", "IB (static routes)", "IB + adaptive (counterfactual)")
	for _, n := range nodeCounts {
		t.AddRow(n, vals.at(id("Elan4", n), 0), vals.at(id("IB static", n), 0), vals.at(id("IB adaptive", n), 0))
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"negative result, quantified: on these bisection-rich fabrics with PCI-X-bound injection (<=0.88 GB/s per node vs 1+ GB/s links), routing policy moves aggregate bandwidth by <0.1% — Elan's lead here comes from its protocol, not its adaptive routing; Section 6's caution that 32-node-era systems cannot exercise issues of scale, made concrete")

	// Where adaptivity DOES matter: a narrow fabric (radix-4 chassis, two
	// spine choices) with flows deliberately aligned so destination-mod
	// routing collides, measured at the fabric layer so nothing else binds.
	t2 := newTable("Same question on a narrow radix-4 fabric with aligned flows (fabric-level)",
		"routing", "makespan (ms)", "aggregate MB/s")
	routings := []string{"static destination routes", "per-packet adaptive"}
	var narrow []point
	for i, label := range routings {
		narrow = append(narrow, point{"narrow " + label, func(base platform.Options) ([]float64, error) {
			makespan, agg, err := narrowFabricPermutation(base, i == 1, o.Quick)
			return []float64{makespan.Seconds() * 1e3, agg}, err
		}})
	}
	spans := runPoints(o, r, narrow)
	for _, label := range routings {
		t2.AddRow(label, spans.at("narrow "+label, 0), spans.at("narrow "+label, 1))
	}
	r.Tables = append(r.Tables, t2)
	r.Notes = append(r.Notes,
		"with two uplinks per leaf and aligned even destinations, static routes collide and per-packet adaptivity roughly doubles throughput — the regime 2004-era full-radix fabrics avoided by construction")
	return r, nil
}

// narrowFabricPermutation streams aligned flows across a radix-4 two-level
// fabric (k = 2 uplinks per leaf) with no host-bus stage, so links are the
// only constraint. Flows (0->4, 1->6, 4->0, 5->2) target even destinations
// only: destination-mod routing maps both flows of each source leaf onto
// uplink 0 while ejection links stay disjoint — the clean case where
// per-packet adaptivity doubles throughput. (With full-radix chassis the
// collision cannot be provoked at line rate, which is the first table's
// point.) The run is fabric-level: of base it takes only Ctx, so it
// records no metrics and takes no fault plan.
func narrowFabricPermutation(base platform.Options, adaptive, quick bool) (units.Duration, float64, error) {
	msgs := 12
	size := units.Bytes(256 * units.KiB)
	if quick {
		msgs = 3
	}
	eng := sim.NewEngine()
	eng.SetContext(base.Ctx)
	fab, err := fabric.New(eng, 8, 4, fabric.Params{
		LinkBandwidth:  1000 * units.MBps,
		WireLatency:    50 * units.Nanosecond,
		ChassisLatency: 200 * units.Nanosecond,
		MTU:            2 * units.KiB,
		Adaptive:       adaptive,
	})
	if err != nil {
		return 0, 0, err
	}
	flows := [][2]int{{0, 4}, {1, 6}, {4, 0}, {5, 2}}
	var last units.Time
	delivered := func() {
		if eng.Now() > last {
			last = eng.Now()
		}
	}
	for _, f := range flows {
		for k := 0; k < msgs; k++ {
			fab.SendThen(f[0], f[1], size, delivered)
		}
	}
	if err := eng.Run(); err != nil {
		return 0, 0, err
	}
	makespan := units.Duration(last)
	bytes := float64(len(flows)*msgs) * float64(size)
	return makespan, bytes / makespan.Seconds() / 1e6, nil
}

// derangement builds a fixed-point-free permutation from a seed.
func derangement(n int, seed uint64) []int {
	src := rng.New(seed)
	for {
		p := src.Perm(n)
		ok := true
		for i, v := range p {
			if i == v {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
}
