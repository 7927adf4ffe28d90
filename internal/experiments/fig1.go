package experiments

import (
	"context"
	"fmt"

	"repro/internal/microbench"
	"repro/internal/platform"
	"repro/internal/runner"
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

func runFig1a(o Options) (*Result, error) {
	sizes := fig1Sizes(o.Quick)
	iters := fig1Iters(o.Quick)
	pp, err := runner.Map(o.ctx(), o.pool("fig1a"), platform.Networks,
		func(_ int, net platform.Network) string { return "pingpong " + net.Short() },
		func(ctx context.Context, net platform.Network) ([]microbench.PingPongPoint, error) {
			return microbench.PingPong(net, sizes, iters, o.env(ctx))
		})
	if err != nil {
		return nil, err
	}
	el, ib := pp[0], pp[1] // platform.Networks order: Elan-4 first
	r := &Result{ID: "fig1a", Title: "Ping-pong latency vs message size (log-x)"}
	t := newTable("Figure 1(a)", "size", "Elan4 us", "IB us", "IB/Elan")
	for i := range sizes {
		e := el[i].Latency.Microseconds()
		b := ib[i].Latency.Microseconds()
		t.AddRow(fmtBytes(sizes[i]), e, b, b/e)
	}
	r.Tables = append(r.Tables, t)
	return r, nil
}

func runFig1b(o Options) (*Result, error) {
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
	// The four micro-benchmark curves are independent two-rank sims; run
	// them as one parallel batch and pull typed values back by index.
	jobs := []runner.Job{
		{ID: "pingpong Elan4", Run: func(ctx context.Context) (interface{}, error) {
			return microbench.PingPong(platform.QuadricsElan4, sizes, iters, o.env(ctx))
		}},
		{ID: "pingpong IB", Run: func(ctx context.Context) (interface{}, error) {
			return microbench.PingPong(platform.InfiniBand4X, sizes, iters, o.env(ctx))
		}},
		{ID: "streaming Elan4", Run: func(ctx context.Context) (interface{}, error) {
			return microbench.Streaming(platform.QuadricsElan4, ssizes, window, witers, o.env(ctx))
		}},
		{ID: "streaming IB", Run: func(ctx context.Context) (interface{}, error) {
			return microbench.Streaming(platform.InfiniBand4X, ssizes, window, witers, o.env(ctx))
		}},
	}
	rs := o.pool("fig1b").Run(o.ctx(), jobs)
	if err := runner.FirstError(rs); err != nil {
		return nil, err
	}
	elPP := rs[0].Value.([]microbench.PingPongPoint)
	ibPP := rs[1].Value.([]microbench.PingPongPoint)
	elST := rs[2].Value.([]microbench.StreamingPoint)
	ibST := rs[3].Value.([]microbench.StreamingPoint)
	r := &Result{ID: "fig1b", Title: "Bandwidth vs message size: ping-pong and streaming methods"}
	t := newTable("Figure 1(b)", "size", "Elan4 pp MB/s", "IB pp MB/s", "Elan4 str MB/s", "IB str MB/s")
	for i, size := range ssizes {
		t.AddRow(fmtBytes(size),
			elPP[i+1].Bandwidth.MBpsValue(), ibPP[i+1].Bandwidth.MBpsValue(),
			elST[i].Bandwidth.MBpsValue(), ibST[i].Bandwidth.MBpsValue())
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"paper anchors: 8 KB ping-pong 552 (Elan) vs 249 (IB) MB/s; IB collapse at 4 MB (registration thrash)")
	return r, nil
}

func runFig1c(o Options) (*Result, error) {
	fb, err := runFig1b(o)
	if err != nil {
		return nil, err
	}
	src := fb.Tables[0]
	r := &Result{ID: "fig1c", Title: "Elan-4 to InfiniBand bandwidth ratio vs message size"}
	t := newTable("Figure 1(c)", "size", "ping-pong ratio", "streaming ratio")
	for _, row := range src.Rows {
		ppE, ppI := atof(row[1]), atof(row[2])
		stE, stI := atof(row[3]), atof(row[4])
		t.AddRow(row[0], safeDiv(ppE, ppI), safeDiv(stE, stI))
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
	type beffCfg struct {
		procs int
		net   platform.Network
	}
	var cfgs []beffCfg
	for _, p := range counts {
		for _, net := range platform.Networks {
			cfgs = append(cfgs, beffCfg{p, net})
		}
	}
	vals, err := runner.Map(o.ctx(), o.pool("fig1d"), cfgs,
		func(_ int, c beffCfg) string { return fmt.Sprintf("b_eff %s procs=%d", c.net.Short(), c.procs) },
		func(ctx context.Context, c beffCfg) (*microbench.BEffResult, error) {
			return microbench.BEff(c.net, c.procs, iters, CanonicalSeed, o.env(ctx))
		})
	if err != nil {
		return nil, err
	}
	for i, p := range counts {
		el, ib := vals[2*i], vals[2*i+1]
		t.AddRow(p, el.PerProcess.MBpsValue(), ib.PerProcess.MBpsValue())
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"b_eff is a logarithmic average dominated by short messages, so values sit far below peak bandwidth (Section 4.1)")
	return r, nil
}
