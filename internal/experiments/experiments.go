// Package experiments contains one driver per table and figure of the
// paper's evaluation, plus extension experiments beyond it. Each driver
// runs the necessary simulations and renders the same rows/series the
// paper reports. cmd/repro and the repository's benchmarks are thin
// wrappers around this registry.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
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
	// Timeout bounds each individual simulation, in a sweep or not (see
	// simulate); 0 means unbounded. A simulation stops at its deadline
	// (its engine polls its context), and the point surfaces as a
	// structured error naming it and renders as "failed" in the tables.
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
	// Ctx, when non-nil, is the base context every sweep runs under:
	// cancelling it drains the worker pools (in-flight points stop at
	// their engines' next poll, queued points are skipped). Nil means
	// context.Background().
	// An experiment whose Ctx was cancelled returns an error wrapping
	// Ctx.Err(), never its partial tables.
	Ctx context.Context
}

// pool builds the parallel runner every sweep in this package executes on.
func (o Options) pool(name string) *runner.Pool {
	return &runner.Pool{Workers: o.Jobs, Timeout: o.Timeout, Progress: o.Progress, Name: name}
}

// ctx returns the base context sweeps run under.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// simulate runs one simulation that an experiment makes outside a sweep
// pool, under the experiment's context bounded by Timeout, as a pool
// bounds each of its jobs. A simulation its deadline stopped is recorded
// on res as a failed point named point, and simulate reports ok false
// with a nil error, so the caller renders the point's cells as "failed",
// as a sweep does. Any other error is returned.
func simulate[T any](o Options, res *Result, point string, run func(ctx context.Context) (T, error)) (v T, ok bool, err error) {
	ctx := o.ctx()
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	v, err = run(ctx)
	if err != nil && o.ctx().Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		attachFailures(res, []runner.Failure{{Job: point, Cause: err.Error(), Err: err}})
		return v, false, nil
	}
	return v, err == nil, err
}

// simFloat is simulate for a simulation measuring one number: a failed
// point reads NaN, which renders as "failed".
func simFloat(o Options, res *Result, point string, run func(ctx context.Context) (float64, error)) (float64, error) {
	v, ok, err := simulate(o, res, point, run)
	if !ok {
		v = math.NaN()
	}
	return v, err
}

// env packages the per-machine environment for microbench calls made by
// the sweep job whose context is ctx.
func (o Options) env(ctx context.Context) microbench.Env {
	return microbench.Env{Metrics: o.Metrics, Faults: o.Faults, Ctx: ctx}
}

// Result is an experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
	Notes  []string
	// Failures lists sweep points that failed. The series still
	// completes — affected table cells, and cells derived from them, read
	// "failed" — and the artifact records the provenance.
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
	guarded := func(o Options) (*Result, error) {
		res, err := run(o)
		// Cancellation makes the sweeps skip or stop their remaining
		// points, so the result is partial.
		if cerr := o.ctx().Err(); cerr != nil && !errors.Is(err, cerr) {
			return nil, fmt.Errorf("experiments: %s interrupted: %w", id, cerr)
		}
		return res, err
	}
	registry = append(registry, Experiment{ID: id, Title: title, Run: guarded})
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

// Listing renders the registry as aligned "id  title" lines, one per
// experiment, in registration order.
func Listing() string {
	var b strings.Builder
	for _, e := range registry {
		fmt.Fprintf(&b, "%-8s %s\n", e.ID, e.Title)
	}
	return b.String()
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

// seriesKey names one point of runSeries' grid.
type seriesKey struct {
	net   platform.Network
	ppn   int
	nodes int
}

// runSeries runs an application across networks, node counts, and PPNs,
// returning elapsed seconds per point; a failed point's value is NaN.
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
	// point that fails does not abort the series: its value is NaN, which
	// renders as "failed", and the failure is recorded with its provenance.
	jobs := make([]runner.Job, len(keys))
	for i, k := range keys {
		k := k
		id := fmt.Sprintf("%s ppn=%d nodes=%d", k.net.Short(), k.ppn, k.nodes)
		jobs[i] = runner.Job{ID: id,
			Labels: map[string]string{"net": k.net.Short(),
				"ppn": fmt.Sprint(k.ppn), "nodes": fmt.Sprint(k.nodes)},
			Run: func(ctx context.Context) (interface{}, error) {
				m, err := platform.New(platform.Options{Network: k.net, Ranks: k.nodes * k.ppn, PPN: k.ppn,
					Metrics: o.Metrics, FaultSpec: o.Faults, Ctx: ctx, Label: id})
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
		out[k] = math.NaN()
		if results[i].Err == nil {
			out[k] = results[i].Value.(float64)
		}
	}
	return out, runner.Failures(results), nil
}

// ofElapsed applies f to a runSeries value converted back to simulated
// time; a failed point (NaN) stays failed.
func ofElapsed(s float64, f func(units.Duration) float64) float64 {
	if math.IsNaN(s) {
		return s
	}
	return f(units.FromSeconds(s))
}

// cellsOf returns the cells a job rendered, or n cells reading
// report.Failed when the job failed.
func cellsOf(r runner.Result, n int) []string {
	if r.Err == nil {
		return r.Value.([]string)
	}
	cells := make([]string, n)
	for i := range cells {
		cells[i] = report.Failed
	}
	return cells
}

// attachFailures folds sweep failures into an experiment result: the
// Failures field rides into the JSON artifact, and each failure also
// becomes a note so text output carries the same provenance.
func attachFailures(res *Result, fails []runner.Failure) {
	res.Failures = append(res.Failures, fails...)
	for _, f := range fails {
		res.Notes = append(res.Notes,
			fmt.Sprintf("point %q failed: %s", f.Job, f.Cause))
	}
}

// seriesLabel names one curve the way the paper's legends do.
func seriesLabel(net platform.Network, ppn int) string {
	return fmt.Sprintf("%s %dPPN", net.Short(), ppn)
}

// fmtSeconds renders a time in seconds with sensible precision, and a
// failed point (NaN) as report.Failed.
func fmtSeconds(s float64) string {
	switch {
	case math.IsNaN(s):
		return report.Failed
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
