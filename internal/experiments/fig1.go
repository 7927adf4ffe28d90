package experiments

import (
	"fmt"

	"repro/internal/microbench"
	"repro/internal/platform"
	"repro/internal/units"
)

func init() {
	register("table1", "Platform description (Table 1)", runTable1)
	register("fig1a", "Ping-pong latency (Figure 1a)", runFig1a)
	register("fig1b", "Ping-pong and streaming bandwidth (Figure 1b)", runFig1b)
	register("fig1c", "Elan-4 / InfiniBand bandwidth ratio (Figure 1c)", runFig1c)
	register("fig1d", "Effective bandwidth per process (Figure 1d)", runFig1d)
}

func runTable1(Options) (*Result, error) {
	r := &Result{ID: "table1", Title: "Cluster platform summary (simulated analogue of the paper's Table 1)"}
	t := newKV("Table 1: platform")
	rows := [][2]string{
		{"Node type", "Dell PowerEdge 1750: dual 3.06 GHz Xeon, 133 MHz PCI-X (simulated: 2 CPU slots, shared half-duplex host bus)"},
		{"InfiniBand interconnect", "Voltaire HCA 400 4X + ISR 9600 96-port switch; MVAPICH 0.9.2 (simulated: internal/ib + internal/mpi/mvib)"},
		{"Quadrics interconnect", "QsNetII QM500 adapter + QS5A 64-port switch; Quadrics MPI (simulated: internal/elan + internal/mpi/tports)"},
		{"IB link/data rate", fmt.Sprint(platform.IBFabricParams().LinkBandwidth)},
		{"Elan link/data rate", fmt.Sprint(platform.ElanFabricParams().LinkBandwidth)},
		{"PCI-X effective DMA (IB / Elan)", fmt.Sprintf("%v / %v", platform.IBFabricParams().HostBandwidth, platform.ElanFabricParams().HostBandwidth)},
		{"Routing (IB / Elan)", "deterministic destination / adaptive per packet"},
	}
	for _, kv := range rows {
		t.AddRow(kv[0], kv[1])
	}
	r.Tables = append(r.Tables, t)
	return r, nil
}

func fig1Sizes(quick bool) []units.Bytes {
	if quick {
		return []units.Bytes{0, 64, 1 * units.KiB, 8 * units.KiB, 256 * units.KiB}
	}
	return microbench.DefaultSizes()
}

func fig1Iters(quick bool) int {
	if quick {
		return 4
	}
	return 20
}

// pingPongUs is a point that measures the ping-pong one-way latency on net,
// in microseconds, at each of sizes.
func pingPongUs(id string, net platform.Network, sizes []units.Bytes, iters int) point {
	return point{id, func(base platform.Options) ([]float64, error) {
		base.Network = net
		pts, err := microbench.PingPong(base, sizes, iters)
		if err != nil {
			return nil, err
		}
		lat := make([]float64, len(pts))
		for i, p := range pts {
			lat[i] = p.Latency.Microseconds()
		}
		return lat, nil
	}}
}

func runFig1a(o Options) (*Result, error) {
	sizes := fig1Sizes(o.Quick)
	iters := fig1Iters(o.Quick)
	r := &Result{ID: "fig1a", Title: "Ping-pong latency vs message size (log-x)"}
	var points []point
	for _, net := range platform.Networks {
		points = append(points, pingPongUs(curveID("pingpong", net), net, sizes, iters))
	}
	lat := runPoints(o, r, points)
	el, ib := curveID("pingpong", platform.QuadricsElan4), curveID("pingpong", platform.InfiniBand4X)
	t := newTable("Figure 1(a)", "size", "Elan4 us", "IB us", "IB/Elan")
	for i := range sizes {
		e, b := lat.at(el, i), lat.at(ib, i)
		t.AddRow(fmtBytes(sizes[i]), e, b, b/e)
	}
	r.Tables = append(r.Tables, t)
	return r, nil
}

// fig1Bandwidth runs Figure 1(b)'s four two-rank curves for r: ping-pong
// and streaming on each network. It returns the sizes the curves share and
// each curve's MB/s at those sizes, keyed by its curveID.
func fig1Bandwidth(o Options, r *Result) ([]units.Bytes, values) {
	sizes := fig1Sizes(o.Quick)
	iters := fig1Iters(o.Quick)
	window, witers := 16, 8
	if o.Quick {
		witers = 3
	}
	// Streaming is meaningless at size 0; drop it.
	ssizes := sizes
	if len(ssizes) > 0 && ssizes[0] == 0 {
		ssizes = ssizes[1:]
	}
	var points []point
	for _, net := range platform.Networks {
		points = append(points, point{curveID("pingpong", net), func(base platform.Options) ([]float64, error) {
			base.Network = net
			pts, err := microbench.PingPong(base, sizes, iters)
			if err != nil {
				return nil, err
			}
			bw := make([]float64, len(ssizes))
			for i, p := range pts[len(sizes)-len(ssizes):] {
				bw[i] = p.Bandwidth.MBpsValue()
			}
			return bw, nil
		}})
	}
	for _, net := range platform.Networks {
		points = append(points, point{curveID("streaming", net), func(base platform.Options) ([]float64, error) {
			base.Network = net
			pts, err := microbench.Streaming(base, ssizes, window, witers)
			if err != nil {
				return nil, err
			}
			bw := make([]float64, len(pts))
			for i, p := range pts {
				bw[i] = p.Bandwidth.MBpsValue()
			}
			return bw, nil
		}})
	}
	return ssizes, runPoints(o, r, points)
}

// curveID names the point that measures a two-rank curve of method
// ("pingpong" or "streaming") on net.
func curveID(method string, net platform.Network) string { return method + " " + net.Short() }

func runFig1b(o Options) (*Result, error) {
	r := &Result{ID: "fig1b", Title: "Bandwidth vs message size: ping-pong and streaming methods"}
	sizes, bw := fig1Bandwidth(o, r)
	el, ib := platform.QuadricsElan4, platform.InfiniBand4X
	t := newTable("Figure 1(b)", "size", "Elan4 pp MB/s", "IB pp MB/s", "Elan4 str MB/s", "IB str MB/s")
	for i, size := range sizes {
		t.AddRow(fmtBytes(size), bw.at(curveID("pingpong", el), i), bw.at(curveID("pingpong", ib), i),
			bw.at(curveID("streaming", el), i), bw.at(curveID("streaming", ib), i))
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"paper anchors: 8 KB ping-pong 552 (Elan) vs 249 (IB) MB/s; IB collapse at 4 MB (registration thrash)")
	return r, nil
}

// runFig1c divides fig1b's measured bandwidths; it re-runs fig1b's points.
func runFig1c(o Options) (*Result, error) {
	r := &Result{ID: "fig1c", Title: "Elan-4 to InfiniBand bandwidth ratio vs message size"}
	sizes, bw := fig1Bandwidth(o, r)
	ratio := func(method string, i int) float64 {
		return bw.at(curveID(method, platform.QuadricsElan4), i) / bw.at(curveID(method, platform.InfiniBand4X), i)
	}
	t := newTable("Figure 1(c)", "size", "ping-pong ratio", "streaming ratio")
	for i, size := range sizes {
		t.AddRow(fmtBytes(size), ratio("pingpong", i), ratio("streaming", i))
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes, "paper anchor: streaming ratio exceeds 5x at small sizes")
	return r, nil
}

func runFig1d(o Options) (*Result, error) {
	counts := []int{2, 4, 8, 16, 32}
	iters := 3
	if o.Quick {
		counts = []int{2, 8}
		iters = 2
	}
	r := &Result{ID: "fig1d", Title: "b_eff normalized per process vs job size (1 PPN)"}
	t := newTable("Figure 1(d)", "procs", "Elan4 b_eff/proc MB/s", "IB b_eff/proc MB/s")
	id := func(net platform.Network, procs int) string {
		return fmt.Sprintf("b_eff %s procs=%d", net.Short(), procs)
	}
	var points []point
	for _, p := range counts {
		for _, net := range platform.Networks {
			points = append(points, point{id(net, p), func(base platform.Options) ([]float64, error) {
				base.Network = net
				res, err := microbench.BEff(base, p, iters, CanonicalSeed)
				if err != nil {
					return nil, err
				}
				return []float64{res.PerProcess.MBpsValue()}, nil
			}})
		}
	}
	vals := runPoints(o, r, points)
	for _, p := range counts {
		t.AddRow(p, vals.at(id(platform.QuadricsElan4, p), 0), vals.at(id(platform.InfiniBand4X, p), 0))
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"b_eff is a logarithmic average dominated by short messages, so values sit far below peak bandwidth (Section 4.1)")
	return r, nil
}
