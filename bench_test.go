package repro_test

// One benchmark per table and figure of the paper, as required by the
// benchmark-harness deliverable: `go test -bench=.` regenerates every
// artifact (in Quick mode, so the suite completes in tens of seconds; run
// `go run ./cmd/repro -exp all` for full fidelity).

import (
	"runtime"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/microbench"
	"repro/internal/platform"
	"repro/internal/units"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(experiments.Options{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Platform(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkTable2IBPrices(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkTable3ElanPrices(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkFig1aLatency(b *testing.B)       { benchExperiment(b, "fig1a") }
func BenchmarkFig1bBandwidth(b *testing.B)     { benchExperiment(b, "fig1b") }
func BenchmarkFig1cRatio(b *testing.B)         { benchExperiment(b, "fig1c") }
func BenchmarkFig1dBEff(b *testing.B)          { benchExperiment(b, "fig1d") }
func BenchmarkFig2LammpsLJS(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkFig3LammpsMembrane(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4Sweep3D(b *testing.B)        { benchExperiment(b, "fig4") }
func BenchmarkFig5SweepInputs(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6NASCG(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkFig7Cost(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkFig8Extrapolation(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkXScaleDirect(b *testing.B)       { benchExperiment(b, "xscale") }
func BenchmarkXRegCache(b *testing.B)          { benchExperiment(b, "xreg") }
func BenchmarkXOverlap(b *testing.B)           { benchExperiment(b, "xoverlap") }
func BenchmarkXLogGP(b *testing.B)             { benchExperiment(b, "xloggp") }
func BenchmarkXAttribution(b *testing.B)       { benchExperiment(b, "xattrib") }
func BenchmarkXEagerThreshold(b *testing.B)    { benchExperiment(b, "xeager") }
func BenchmarkXNoise(b *testing.B)             { benchExperiment(b, "xnoise") }
func BenchmarkXRouting(b *testing.B)           { benchExperiment(b, "xroute") }
func BenchmarkXRGetRendezvous(b *testing.B)    { benchExperiment(b, "xrget") }

// BenchmarkRunnerSpeedup pins the parallel-sweep trajectory: the same
// LAMMPS sweep (fig3: 12 independent sims in quick mode) executed serially
// and on a full worker pool. On a single-CPU host the two are equal; on
// multi-core hardware the ratio is the runner's speedup. Output stays
// byte-identical either way (see TestParallelDeterminism).
func benchmarkRunnerSweep(b *testing.B, jobs int) {
	b.Helper()
	e, err := experiments.Get("fig3")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(experiments.Options{Quick: true, Jobs: jobs}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunnerSpeedupSerial(b *testing.B) { benchmarkRunnerSweep(b, 1) }
func BenchmarkRunnerSpeedupParallel(b *testing.B) {
	benchmarkRunnerSweep(b, runtime.GOMAXPROCS(0))
}

// Raw micro-benchmark throughput of the simulator itself: how fast the
// discrete-event engine pushes MPI traffic. Useful when changing the sim
// kernel.
func BenchmarkSimulatorPingPong8KiB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := microbench.PingPong(platform.Options{Network: platform.QuadricsElan4},
			[]units.Bytes{8 * units.KiB}, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorBarrier64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := repro.NewCluster(repro.QuadricsElan4, 64, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(func(r *repro.Rank) {
			for k := 0; k < 10; k++ {
				r.Barrier()
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
}
