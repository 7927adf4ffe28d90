// Command bench is the repository's host-time benchmark: how long the
// simulator takes to run four workloads drawn from the paper's evaluation,
// how much CPU and memory it uses doing so, and — in a separate traced run
// — which layer of the stack the time goes to.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload wavefront --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload beff --trace 1          # per-layer metrics
//	bash bench/run.sh --diff a.json b.json               # compare two sets of runs
//
// run.sh builds this package into .bench_build and runs it; `go run .`
// from bench/ works too. A timed run discards one warm-up pass, then runs
// passes over the workload's simulations until --seconds have elapsed and
// reports each end-to-end metric's median, quartiles and pass count. The
// last line of standard output is one JSON object: correct, attempted,
// failed and metrics. The exit code is non-zero when any simulation
// errored or produced a digest other than golden.json's. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// minPasses is the fewest timed passes a run reports, however long they
// take.
const minPasses = 3

//go:embed golden.json
var goldenJSON []byte

// golden is the on-disk form of golden.json.
type golden struct {
	Seed uint64            `json:"seed"`
	Sims map[string]string `json:"sims"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: wavefront, halo, beff or bulk")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 15, "how long the timed passes run")
	trace := fs.Int("trace", 0, "1 adds the traced run and reports per-layer metrics instead")
	diff := fs.Bool("diff", false, "compare two files of bench output: -diff a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diff {
		return diffFiles(fs.Args(), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	sims, err := buildWorkload(*workload, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(stderr, "bench: running unpinned:", err)
	}
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		fmt.Fprintln(stderr, "bench: golden.json:", err)
		return 2
	}

	rep := report{
		Workload: *workload,
		Seed:     *seed,
		Trace:    *trace,
		Host:     hostFingerprint(),
	}
	fmt.Fprintf(stdout, "# bench workload=%s seed=%d trace=%d sims=%d\n", *workload, *seed, *trace, len(sims))
	fmt.Fprintf(stdout, "# host %s\n", rep.Host)

	budget := time.Duration(*seconds * float64(time.Second))
	var spans *spanLog
	if *trace == 1 {
		spans = newSpanLog()
	}
	b := newBench(sims, g.Sims, *seed == g.Seed, spans)
	b.pass("warmup", nil)
	samples := timedPasses(b, budget)
	if *trace == 1 {
		if err := tracedRun(b, samples, &rep, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	} else {
		rep.EndToEnd = endToEnd(samples)
	}
	rep.Attempted, rep.Failed = b.attempted, len(b.failures)
	rep.Digests = b.first
	return finish(rep, b.failures, stdout, stderr)
}

// timedPasses runs untraced passes until budget has elapsed, and at least
// minPasses of them. After each pass, outside its measured interval, it
// times the pass's machine set-up again (see setupTime).
func timedPasses(b *bench, budget time.Duration) []passSample {
	var samples []passSample
	start := time.Now()
	for len(samples) < minPasses || time.Since(start) < budget {
		s := b.pass("timed", nil)
		s.setup = b.setupTime()
		samples = append(samples, s)
	}
	return samples
}

// endToEnd summarizes the timed passes into the end-to-end metrics.
func endToEnd(samples []passSample) map[string]summary {
	series := map[string][]float64{}
	for _, s := range samples {
		series["wall_s"] = append(series["wall_s"], s.wall.Seconds())
		series["cpu_s"] = append(series["cpu_s"], s.cpu.Seconds())
		series["alloc_mb"] = append(series["alloc_mb"], float64(s.allocBytes)/1e6)
		series["setup_s"] = append(series["setup_s"], s.setup.Seconds())
	}
	series["peak_rss_mb"] = []float64{peakRSSMB()}
	out := map[string]summary{}
	for _, m := range endToEndMetrics {
		s := summarize(series[m.name])
		s.Unit, s.Bound = m.unit, m.bound
		out[m.name] = s
	}
	return out
}

// metricDef names a metric, its unit, and for end-to-end metrics the share
// of the baseline median by which it may worsen before a change counts as
// a regression.
type metricDef struct {
	name  string
	unit  string
	bound float64
}

// endToEndMetrics are what a user waiting on a simulation sees. There is
// deliberately no events/s: a change that dispatches fewer events for the
// same modelled traffic would read as a regression on it.
//
// Bounds are wide enough for the host drift measured while choosing them
// (README.md); BENCHMARK.json repeats them and a test keeps the two equal.
var endToEndMetrics = []metricDef{
	{"wall_s", "s", 0.25},
	{"cpu_s", "s", 0.25},
	{"alloc_mb", "MB", 0.05},
	{"peak_rss_mb", "MB", 0.20},
	{"setup_s", "s", 0.25},
}

// report is everything one invocation measured. It is printed as one JSON
// line so that `bench -diff` can compare files of concatenated output.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     int                    `json:"trace"`
	Host      fingerprint            `json:"host"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]summary     `json:"end_to_end,omitempty"`
	Layers    map[string]metricValue `json:"layers,omitempty"`
	Digests   map[string]string      `json:"digests"`
}

// metricValue is one metric as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the human-readable table, the report line and the result
// line, and returns the exit code.
func finish(rep report, failures []string, stdout, stderr io.Writer) int {
	for _, m := range endToEndMetrics {
		if s, ok := rep.EndToEnd[m.name]; ok {
			fmt.Fprintf(stdout, "%-12s %12.6g %-4s q1 %-10.6g q3 %-10.6g n %-3d bound +%.0f%%\n",
				m.name, s.Median, s.Unit, s.Q1, s.Q3, s.N, m.bound*100)
		}
	}
	for _, m := range layerMetrics {
		if v, ok := rep.Layers[m.name]; ok {
			fmt.Fprintf(stdout, "%-34s %14.6g %s\n", m.name, v.Value, v.Unit)
		}
	}
	frac := float64(rep.Failed) / float64(max(rep.Attempted, 1))
	fmt.Fprintf(stdout, "sims_failed_frac %g (%d of %d simulations)\n", frac, rep.Failed, rep.Attempted)
	for _, f := range failures {
		fmt.Fprintln(stderr, "bench: FAILED", f)
	}

	line, err := json.Marshal(struct {
		Report report `json:"report"`
	}{rep})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))

	metrics := map[string]metricValue{}
	for name, s := range rep.EndToEnd {
		metrics[name] = metricValue{Value: s.Median, Unit: s.Unit}
	}
	for name, v := range rep.Layers {
		metrics[name] = v
	}
	result, err := json.Marshal(map[string]interface{}{
		"correct":   rep.Failed == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(result))
	if rep.Failed > 0 {
		return 1
	}
	return 0
}
