package experiments

import (
	"repro/internal/apps/nascg"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/units"
)

func init() {
	register("fig6", "NAS CG class A (Figure 6)", runFig6)
}

func runFig6(o Options) (*Result, error) {
	nodes := []int{1, 2, 4, 8, 16, 32}
	params := nascg.Default(nascg.ClassA)
	if o.Quick {
		nodes = []int{1, 2, 4}
		params = nascg.Default(nascg.ClassS)
		params.Class.OuterIt = 3
	}
	r := &Result{ID: "fig6", Title: "NAS Parallel Benchmark CG, class " + params.Class.Name}
	times := runSeries(o, r, "", platform.Networks, nodes, []int{1, 2},
		func(r *mpi.Rank) { nascg.Run(r, params) })
	tm := newTable("Figure 6(a) — MOps/second/process", append([]string{"procs"}, seriesHeaders()...)...)
	te := newTable("Figure 6(b) — scaling efficiency (%)", append([]string{"procs"}, seriesHeaders()...)...)
	eff := report.Efficiency{Scaled: false}
	effSeries := map[string][]float64{}
	for _, net := range platform.Networks {
		for _, ppn := range []int{1, 2} {
			procs := make([]int, len(nodes))
			series := make([]float64, len(nodes))
			for i, n := range nodes {
				procs[i] = n * ppn
				series[i] = times[seriesKey{net, ppn, n}]
			}
			effSeries[seriesLabel(net, ppn)] = eff.Compute(procs, series)
		}
	}
	for i, n := range nodes {
		mrow := []interface{}{n * 1} // processes at 1 PPN; 2 PPN shown in its own columns
		erow := []interface{}{n * 1}
		for _, net := range platform.Networks {
			for _, ppn := range []int{1, 2} {
				// MOps/s is inversely proportional to time, so a failed
				// (NaN) time gives a failed rate.
				mrow = append(mrow, params.MOpsPerProcess(units.Second, n*ppn)/times[seriesKey{net, ppn, n}])
				erow = append(erow, effSeries[seriesLabel(net, ppn)][i])
			}
		}
		tm.AddRow(mrow...)
		te.AddRow(erow...)
	}
	r.Tables = append(r.Tables, tm, te)
	r.Notes = append(r.Notes,
		"paper shape: both networks drop rapidly in efficiency (fixed cache-resident problem, communication dominated); Quadrics keeps a distinct, slightly growing advantage")
	return r, nil
}
