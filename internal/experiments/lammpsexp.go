package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/apps/lammps"
	"repro/internal/extrapolate"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/report"
)

func init() {
	register("fig2", "LAMMPS LJS scaled problem (Figure 2)", runFig2)
	register("fig3", "LAMMPS membrane scaled problem (Figure 3)", runFig3)
	register("fig8", "Extrapolated membrane scaling to 8192 processes (Figure 8)", runFig8)
	register("xscale", "Extension: direct large-scale simulation vs Figure 8's trend fit", runXScale)
}

func lammpsNodes(quick bool) []int {
	if quick {
		return []int{1, 2, 4}
	}
	return []int{1, 2, 4, 8, 16, 32}
}

func lammpsSteps(quick bool) int {
	if quick {
		return 4
	}
	return 20
}

// runLammps executes one LAMMPS problem across the full sweep and renders
// the paper's two panels: execution time (per step) and scaled efficiency.
func runLammps(id, title string, params lammps.Params, o Options) (*Result, error) {
	nodes := lammpsNodes(o.Quick)
	r := &Result{ID: id, Title: title}
	times := runSeries(o, r, "", platform.Networks, nodes, []int{1, 2},
		func(r *mpi.Rank) { lammps.Run(r, params) })
	tt := newTable(title+" — time (s)", append([]string{"nodes"}, seriesHeaders()...)...)
	te := newTable(title+" — scaled efficiency (%)", append([]string{"nodes"}, seriesHeaders()...)...)
	eff := report.Efficiency{Scaled: true}
	effSeries := map[string][]float64{}
	for _, net := range platform.Networks {
		for _, ppn := range []int{1, 2} {
			series := make([]float64, len(nodes))
			for i, n := range nodes {
				series[i] = times[seriesKey{net, ppn, n}]
			}
			effSeries[seriesLabel(net, ppn)] = eff.Compute(nodes, series)
		}
	}
	for i, n := range nodes {
		trow := []interface{}{n}
		erow := []interface{}{n}
		for _, net := range platform.Networks {
			for _, ppn := range []int{1, 2} {
				trow = append(trow, fmtCell(times[seriesKey{net, ppn, n}], fmtSeconds))
				erow = append(erow, effSeries[seriesLabel(net, ppn)][i])
			}
		}
		tt.AddRow(trow...)
		te.AddRow(erow...)
	}
	r.Tables = append(r.Tables, tt, te)
	return r, nil
}

func seriesHeaders() []string {
	var out []string
	for _, net := range platform.Networks {
		for _, ppn := range []int{1, 2} {
			out = append(out, seriesLabel(net, ppn))
		}
	}
	return out
}

func runFig2(o Options) (*Result, error) {
	res, err := runLammps("fig2", "LAMMPS LJS (scaled, 32k atoms/process)", lammps.LJS(lammpsSteps(o.Quick)), o)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"paper shape: 1PPN beats 2PPN on both networks; the IB 1PPN-to-2PPN gap is the widest margin")
	return res, nil
}

func runFig3(o Options) (*Result, error) {
	res, err := runLammps("fig3", "LAMMPS membrane (scaled, overlapped exchange)", lammps.Membrane(lammpsSteps(o.Quick)), o)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"paper anchors at 32 nodes: Elan 93%/91% (1/2 PPN), IB 84%/77%")
	return res, nil
}

// membraneFits fits the Figure 8 trend for each series from the measured
// range (4..32 nodes, skipping the flat small-node region like the paper's
// 'trends as they did for the first 32 nodes'). Its points run for res.
// A series with a failed point has no trend: every parameter of its fit is
// NaN, so every projection from it reads NaN and renders report.Failed.
func membraneFits(o Options, res *Result) (map[string]*extrapolate.Fit, []int, error) {
	nodes := lammpsNodes(o.Quick)
	params := lammps.Membrane(lammpsSteps(o.Quick))
	times := runSeries(o, res, "", platform.Networks, nodes, []int{1, 2},
		func(r *mpi.Rank) { lammps.Run(r, params) })
	fits := map[string]*extrapolate.Fit{}
	for _, net := range platform.Networks {
		for _, ppn := range []int{1, 2} {
			procs := make([]int, len(nodes))
			series := make([]float64, len(nodes))
			for i, n := range nodes {
				procs[i] = n * ppn
				series[i] = times[seriesKey{net, ppn, n}]
			}
			if slices.ContainsFunc(series, math.IsNaN) {
				nan := math.NaN()
				fits[seriesLabel(net, ppn)] = &extrapolate.Fit{InterceptLn: nan, Slope: nan, R2: nan}
				continue
			}
			fit, err := extrapolate.FitLogTime(procs, series)
			if err != nil {
				return nil, nil, err
			}
			fits[seriesLabel(net, ppn)] = fit
		}
	}
	return fits, nodes, nil
}

func runFig8(o Options) (*Result, error) {
	r := &Result{ID: "fig8", Title: "Membrane trends extrapolated (geometric per-doubling fit)"}
	fits, nodes, err := membraneFits(o, r)
	if err != nil {
		return nil, err
	}
	refProcs := nodes[0]
	procs := []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
	tt := newTable("Figure 8 — projected time (s)", append([]string{"procs"}, seriesHeaders()...)...)
	te := newTable("Figure 8 — projected scaled efficiency (%)", append([]string{"procs"}, seriesHeaders()...)...)
	for _, p := range procs {
		trow := []interface{}{p}
		erow := []interface{}{p}
		for _, h := range seriesHeaders() {
			fit := fits[h]
			trow = append(trow, fmtCell(fit.TimeAt(p), fmtSeconds))
			erow = append(erow, fit.EfficiencyAt(refProcs, p))
		}
		tt.AddRow(trow...)
		te.AddRow(erow...)
	}
	r.Tables = append(r.Tables, tt, te)
	for _, h := range seriesHeaders() {
		if math.IsNaN(fits[h].Slope) {
			r.Notes = append(r.Notes, fmt.Sprintf("%s: trend fit %s", h, report.Failed))
			continue
		}
		r.Notes = append(r.Notes, fmt.Sprintf("%s: x%.4f time per process doubling (R2=%.3f)",
			h, fits[h].PerDoublingFactor(), fits[h].R2))
	}
	pct := func(v float64) string { return fmt.Sprintf("%.0f%%", v) }
	elan := fits[seriesLabel(platform.QuadricsElan4, 1)].EfficiencyAt(refProcs, 1024)
	ib := fits[seriesLabel(platform.InfiniBand4X, 1)].EfficiencyAt(refProcs, 1024)
	r.Notes = append(r.Notes, fmt.Sprintf(
		"paper anchor: ~40%% efficiency difference at 1024 nodes; projected Elan %s vs IB %s",
		fmtCell(elan, pct), fmtCell(ib, pct)))
	return r, nil
}

// runXScale goes beyond the paper: simulate the membrane problem directly
// at sizes the authors could only extrapolate to, and compare against the
// Figure 8 fit.
func runXScale(o Options) (*Result, error) {
	r := &Result{ID: "xscale", Title: "Direct simulation at scale vs the small-system trend fit (1 PPN)"}
	fits, small, err := membraneFits(o, r)
	if err != nil {
		return nil, err
	}
	big := []int{64, 128, 256, 512}
	if o.Quick {
		big = []int{8, 16}
	}
	params := lammps.Membrane(lammpsSteps(o.Quick))
	times := runSeries(o, r, "", platform.Networks, big, []int{1},
		func(r *mpi.Rank) { lammps.Run(r, params) })
	t := newTable("Extension X-1", "nodes", "Elan4 sim (s)", "Elan4 fit (s)", "IB sim (s)", "IB fit (s)")
	for _, n := range big {
		t.AddRow(n,
			fmtCell(times[seriesKey{platform.QuadricsElan4, 1, n}], fmtSeconds),
			fmtCell(fits[seriesLabel(platform.QuadricsElan4, 1)].TimeAt(n), fmtSeconds),
			fmtCell(times[seriesKey{platform.InfiniBand4X, 1, n}], fmtSeconds),
			fmtCell(fits[seriesLabel(platform.InfiniBand4X, 1)].TimeAt(n), fmtSeconds))
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes, fmt.Sprintf(
		"fit trained on %d..%d nodes; agreement at larger sizes validates (or bounds) the paper's Figure 8 method", small[0], small[len(small)-1]))
	return r, nil
}
