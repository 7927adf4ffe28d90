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
	// Jobs caps how many simulations an experiment runs concurrently;
	// <= 0 means runtime.GOMAXPROCS(0). Every simulation owns a private
	// event engine and results are assembled in submission order, so the
	// output is byte-identical for any value of Jobs.
	Jobs int
	// Timeout bounds each simulation point (see runPoints); 0 means
	// unbounded. A point stops at its deadline (its engines poll its
	// context), fails with a structured error naming it, and renders as
	// "failed" in the tables.
	Timeout time.Duration
	// Progress, when non-nil, receives progress lines (done/total,
	// elapsed, ETA). Point it at stderr so tables stay clean.
	Progress io.Writer
	// Metrics, when non-nil, is attached to every machine the experiment
	// builds: counters and histograms accumulate into it across all
	// points (merges commute, so the snapshot is independent of Jobs), and
	// if tracing is enabled each machine contributes a timeline track
	// labelled with its point's ID. Nil disables all recording; results
	// are identical either way.
	Metrics *metrics.Registry
	// Faults, when non-empty, installs the same fault plan on every
	// machine the experiment builds (internal/fault spec language or
	// "storm:<seed>"); xfault, which builds its own plans, ignores it.
	// Faulty runs are exactly as deterministic as clean ones: same spec +
	// seed => byte-identical output at any Jobs.
	Faults string
	// Ctx, when non-nil, is the base context every point runs under:
	// cancelling it drains the worker pools (in-flight points stop at
	// their engines' next poll, queued points are skipped). Nil means
	// context.Background().
	// An experiment whose Ctx was cancelled returns an error wrapping
	// Ctx.Err(), never its partial tables.
	Ctx context.Context
}

// ctx returns the base context points run under.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// A point is one simulation an experiment makes. Its ID names it in
// failures, progress and the timeline, and keys its values; run builds and
// runs its machines from base, filling in Network, Ranks, PPN, Radix and any
// Tune* hook, and returns the numbers it measured.
type point struct {
	id  string
	run func(base platform.Options) ([]float64, error)
}

// values holds what each point measured, by point ID. A failed point
// measured nothing, so each of its values reads NaN, and arithmetic carries
// the NaN into every value derived from it (a ratio, an efficiency), which
// renders as report.Failed.
type values map[string][]float64

// at returns value i of point id: NaN if the point failed.
func (v values) at(id string, i int) float64 {
	vals, ok := v[id]
	if !ok {
		panic(fmt.Sprintf("experiments: no point %q", id))
	}
	if vals == nil {
		return math.NaN()
	}
	return vals[i]
}

// runPoints is the one place an experiment's simulations run. Each point
// is one job on the experiment's pool, bounded by Timeout, and gets a base
// carrying the experiment's environment: Metrics, Faults as FaultSpec, the
// job's context as Ctx, and the point's ID as Label. The output does not
// depend on Jobs. A point that fails does not abort the experiment: it is
// recorded on res, and its values read NaN.
func runPoints(o Options, res *Result, points []point) values {
	jobs := make([]runner.Job, len(points))
	for i, p := range points {
		jobs[i] = runner.Job{ID: p.id, Run: func(ctx context.Context) (interface{}, error) {
			return p.run(platform.Options{Metrics: o.Metrics, FaultSpec: o.Faults, Ctx: ctx, Label: p.id})
		}}
	}
	pool := &runner.Pool{Workers: o.Jobs, Timeout: o.Timeout, Progress: o.Progress, Name: res.ID}
	results := pool.Run(o.ctx(), jobs)
	vals := make(values, len(points))
	for i, r := range results {
		id := points[i].id
		if _, dup := vals[id]; dup {
			panic(fmt.Sprintf("experiments: two points %q", id))
		}
		vals[id] = nil
		if r.Err == nil {
			vals[id] = r.Value.([]float64)
		}
	}
	attachFailures(res, runner.Failures(results))
	return vals
}

// Result is an experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
	Notes  []string
	// Failures lists the points that failed. The experiment still
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
// name, when not empty, prefixes each point's ID.
func runSeries(o Options, res *Result, name string, nets []platform.Network, nodeCounts []int, ppns []int,
	app func(r *mpi.Rank)) map[seriesKey]float64 {
	ids := map[seriesKey]string{}
	var points []point
	for _, net := range nets {
		for _, ppn := range ppns {
			for _, nodes := range nodeCounts {
				k := seriesKey{net, ppn, nodes}
				ids[k] = strings.TrimSpace(fmt.Sprintf("%s %s ppn=%d nodes=%d", name, net.Short(), ppn, nodes))
				points = append(points, point{ids[k], func(base platform.Options) ([]float64, error) {
					base.Network, base.Ranks, base.PPN = k.net, k.nodes*k.ppn, k.ppn
					m, err := platform.New(base)
					if err != nil {
						return nil, fmt.Errorf("%v nodes=%d ppn=%d: %w", k.net, k.nodes, k.ppn, err)
					}
					run, err := m.Run(app)
					if err != nil {
						return nil, fmt.Errorf("%v nodes=%d ppn=%d: %w", k.net, k.nodes, k.ppn, err)
					}
					return []float64{run.Elapsed.Seconds()}, nil
				}})
			}
		}
	}
	vals := runPoints(o, res, points)
	out := make(map[seriesKey]float64, len(ids))
	for k, id := range ids {
		out[k] = vals.at(id, 0)
	}
	return out
}

// attachFailures folds point failures into an experiment result: the
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

// fmtCell renders v with format, and a NaN v (a failed point's value, or
// one derived from it) as report.Failed: AddRow's rule for a float64 cell,
// for a cell that needs its own format.
func fmtCell(v float64, format func(float64) string) string {
	if math.IsNaN(v) {
		return report.Failed
	}
	return format(v)
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
