// Package experiments contains one driver per table and figure of the
// paper's evaluation, plus extension experiments beyond it. Each driver
// runs the necessary simulations and renders the same rows/series the
// paper reports. cmd/repro and the repository's benchmarks are thin
// wrappers around this registry.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/microbench"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/units"
)

// CanonicalSeed seeds every randomized workload in the suite (b_eff
// traffic patterns and the like); it is recorded in JSON artifacts so a
// result file documents its own reproduction recipe.
const CanonicalSeed = 42

// Options controls experiment execution.
type Options struct {
	// Quick shrinks iteration counts and sweep ranges so the whole suite
	// runs in seconds (used by `go test -bench` and smoke runs). Full
	// fidelity is the default.
	Quick bool
	// Jobs caps how many simulations a sweep runs concurrently; <= 0
	// means runtime.GOMAXPROCS(0). Every simulation owns a private
	// event engine and results are assembled in submission order, so the
	// output is byte-identical for any value of Jobs.
	Jobs int
	// Timeout bounds each individual simulation; 0 means unbounded. A
	// simulation past its deadline is abandoned and surfaces as a
	// structured error naming the sweep point.
	Timeout time.Duration
	// Progress, when non-nil, receives sweep progress lines (done/total,
	// elapsed, ETA). Point it at stderr so tables stay clean.
	Progress io.Writer
	// Metrics, when non-nil, is attached to every machine the experiment
	// builds: counters and histograms accumulate into it across all sweep
	// points (merges commute, so the snapshot is independent of Jobs), and
	// if tracing is enabled each machine contributes a labelled timeline
	// track. Nil disables all recording; results are identical either way.
	Metrics *metrics.Registry
	// Faults, when non-empty, installs the same fault plan on every
	// machine the experiment builds (internal/fault spec language or
	// "storm:<seed>"). Faulty runs are exactly as deterministic as clean
	// ones: same spec + seed => byte-identical output at any Jobs.
	Faults string
	// Retries re-runs sweep points that panic or time out up to this many
	// additional times before recording the failure (see runner.Pool).
	Retries int
	// Ctx, when non-nil, is the base context every sweep runs under:
	// cancelling it drains the worker pools gracefully (in-flight points
	// finish, queued points are skipped). Nil means context.Background().
	Ctx context.Context
	// OnProgress, when non-nil, receives a callback after each sweep point
	// completes: the sweep's name plus done/total counts. This is the
	// programmatic twin of Progress (which renders stderr lines) and is
	// how the job server streams experiment progress to clients.
	OnProgress func(sweep string, done, total int)
}

// pool builds the parallel runner every sweep in this package executes on.
func (o Options) pool(name string) *runner.Pool {
	p := &runner.Pool{Workers: o.Jobs, Timeout: o.Timeout, Progress: o.Progress,
		Name: name, Retries: o.Retries}
	if o.OnProgress != nil {
		hook := o.OnProgress
		p.OnProgress = func(done, total int) { hook(name, done, total) }
	}
	return p
}

// ctx returns the base context sweeps run under.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// env packages the per-machine environment for microbench calls.
func (o Options) env() microbench.Env {
	return microbench.Env{Metrics: o.Metrics, Faults: o.Faults}
}

// Result is an experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
	Notes  []string
	// Failures lists sweep points that failed after retries. The series
	// still completes — affected table cells read 0 — and the artifact
	// records the provenance.
	Failures []runner.Failure
}

// String renders the result as text.
func (r *Result) String() string {
	out := fmt.Sprintf("### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Experiment is a registered driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Result, error)
}

//simlint:allow globalstate — write-once registry, appended only from package init funcs and copied on read
var registry []Experiment

func register(id, title string, run func(Options) (*Result, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns every experiment in registration (paper) order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// IDs lists the registered experiment ids.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	return ids
}

// Get looks an experiment up by id.
func Get(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	sorted := IDs()
	sort.Strings(sorted)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, sorted)
}

// appSeries runs an application across networks, node counts, and PPNs,
// returning elapsed seconds keyed by [network][ppn][nodes].
type seriesKey struct {
	net   platform.Network
	ppn   int
	nodes int
}

func runSeries(o Options, nets []platform.Network, nodeCounts []int, ppns []int,
	app func(r *mpi.Rank)) (map[seriesKey]float64, []runner.Failure, error) {
	var keys []seriesKey
	for _, net := range nets {
		for _, ppn := range ppns {
			for _, nodes := range nodeCounts {
				keys = append(keys, seriesKey{net, ppn, nodes})
			}
		}
	}
	// Every point builds its own machine (private event engine, private
	// RNG streams), so the grid is embarrassingly parallel; results are
	// assembled in key order, keeping output independent of o.Jobs. A
	// point that fails (even after retries) does not abort the series: its
	// cell stays 0 and the failure is recorded with its provenance.
	jobs := make([]runner.Job, len(keys))
	for i, k := range keys {
		k := k
		id := fmt.Sprintf("%s ppn=%d nodes=%d", k.net.Short(), k.ppn, k.nodes)
		jobs[i] = runner.Job{ID: id,
			Labels: map[string]string{"net": k.net.Short(),
				"ppn": fmt.Sprint(k.ppn), "nodes": fmt.Sprint(k.nodes)},
			Run: func(_ context.Context) (interface{}, error) {
				m, err := platform.New(platform.Options{Network: k.net, Ranks: k.nodes * k.ppn, PPN: k.ppn,
					Metrics: o.Metrics, FaultSpec: o.Faults,
					Label: id})
				if err != nil {
					return nil, fmt.Errorf("%v nodes=%d ppn=%d: %w", k.net, k.nodes, k.ppn, err)
				}
				res, err := m.Run(app)
				if err != nil {
					return nil, fmt.Errorf("%v nodes=%d ppn=%d: %w", k.net, k.nodes, k.ppn, err)
				}
				return res.Elapsed.Seconds(), nil
			}}
	}
	results := o.pool("series").Run(o.ctx(), jobs)
	out := make(map[seriesKey]float64, len(keys))
	for i, k := range keys {
		if results[i].Err == nil {
			out[k] = results[i].Value.(float64)
		}
	}
	return out, runner.Failures(results), nil
}

// attachFailures folds sweep failures into an experiment result: the
// Failures field rides into the JSON artifact, and each failure also
// becomes a note so text output carries the same provenance.
func attachFailures(res *Result, fails []runner.Failure) {
	res.Failures = append(res.Failures, fails...)
	for _, f := range fails {
		res.Notes = append(res.Notes,
			fmt.Sprintf("point %q failed after %d attempt(s): %s", f.Job, f.Attempts, f.Cause))
	}
}

// seriesLabel names one curve the way the paper's legends do.
func seriesLabel(net platform.Network, ppn int) string {
	return fmt.Sprintf("%s %dPPN", net.Short(), ppn)
}

// fmtSeconds renders a time in seconds with sensible precision.
func fmtSeconds(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 1:
		return fmt.Sprintf("%.2f", s)
	default:
		return fmt.Sprintf("%.4f", s)
	}
}

// fmtBytes renders a message size like the paper's axes.
func fmtBytes(b units.Bytes) string { return b.String() }

// newTable builds a report table.
func newTable(title string, headers ...string) *report.Table {
	return report.NewTable(title, headers...)
}

// newKV builds a two-column property table.
func newKV(title string) *report.Table {
	return report.NewTable(title, "property", "value")
}

// atof parses a table cell back to float (cells are produced by AddRow's
// formatter, so this never sees garbage in practice).
func atof(s string) float64 {
	var v float64
	fmt.Sscanf(s, "%g", &v)
	return v
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
