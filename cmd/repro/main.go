// Command repro regenerates the tables and figures of "A Comparison of 4X
// InfiniBand and Quadrics Elan-4 Technologies" (CLUSTER 2004) from the
// simulated platform.
//
// Usage:
//
//	repro -list                 # experiment ids with descriptions
//	repro -exp list             # same listing (mirrors GET /v1/experiments on simd)
//	repro -exp fig1a            # one experiment, full fidelity
//	repro -exp all              # everything, experiments in parallel
//	repro -exp all -jobs 1      # serial run (byte-identical stdout)
//	repro -exp fig3 -quick      # fast, reduced sweep
//	repro -exp fig7 -csv        # emit CSV instead of aligned tables
//	repro -exp all -out results # also write one .txt + .json per experiment
//	repro -exp all -timeout 5m  # abandon any single simulation past 5m
//	repro -exp fig1b -metrics m.json    # counters/histograms snapshot per experiment
//	repro -exp fig2 -tracefile t.json   # chrome://tracing timeline of every machine
//	repro -exp all -faults storm:2026   # seeded random fault storm on every fabric
//	repro -exp fig4 -faults 'loss:all:p=0.001' -retries 2  # explicit plan + job retry
//	repro -exp all -quick -faults storm:2026 -chaos-strict # fault-kills tolerated, real bugs still exit 1
//	repro -campaign 64                  # behavioral-contract campaign over 64 generated scenarios
//	repro -campaign 64 -campaign-seed 7 -campaign-corpus corpus  # write shrunk reproducers
//
// Experiments print to stdout in registration order regardless of -jobs
// (results stream as soon as their predecessors are done), so stdout is
// byte-identical for any worker count. Timing, progress, and the summary
// go to stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/runner"
)

func main() { os.Exit(run()) }

// outcome carries one finished experiment through the pool.
type outcome struct {
	res       *experiments.Result
	body      string
	wall      time.Duration
	simEvents uint64 // total events across the experiment's sims (-metrics only)
}

func run() int {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list), comma list, or 'all'")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		quick    = flag.Bool("quick", false, "reduced sweeps for a fast smoke run")
		csv      = flag.Bool("csv", false, "emit CSV tables")
		plot     = flag.Bool("plot", false, "append ASCII charts for numeric tables")
		out      = flag.String("out", "", "directory to also write per-experiment .txt/.csv and .json files into")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "max concurrent simulations per sweep (and concurrent experiments with -exp all); 1 = serial")
		timeout  = flag.Duration("timeout", 0, "per-simulation timeout inside sweeps (0 = none)")
		progress = flag.Bool("progress", false, "report per-sweep progress on stderr (done/total, ETA)")
		metOut   = flag.String("metrics", "", "write a per-experiment JSON snapshot of simulation counters/gauges/histograms to this file")
		traceOut = flag.String("tracefile", "", "write a merged chrome://tracing (trace_event JSON) timeline of every simulated machine to this file")
		faults   = flag.String("faults", "", "fault plan installed on every simulated fabric: a spec like 'loss:all:p=0.001;down:spine(0):at=10us:for=200us', or 'storm:<seed>' for a randomized storm (deterministic: same spec => byte-identical output at any -jobs)")
		retries  = flag.Int("retries", 0, "re-run a sweep point that panics or times out up to N extra times before recording the failure")
		strict   = flag.Bool("chaos-strict", false, "with -faults: tolerate experiments deterministically killed by the fault plan (IB retry-budget exhaustion) but still exit nonzero on any other failure (panic, timeout, bug)")

		campaignN      = flag.Int("campaign", 0, "run a behavioral-contract campaign over N generated scenarios instead of experiments (see internal/campaign); violations are auto-shrunk and reported")
		campaignSeed   = flag.Uint64("campaign-seed", campaign.DefaultSeed, "scenario-generation seed for -campaign (same seed => identical scenarios, digest, and findings at any -jobs)")
		campaignCorpus = flag.String("campaign-corpus", "", "directory to write shrunk, checksummed reproducer specs into (one JSON file per violation)")
	)
	flag.Parse()

	if *campaignN > 0 {
		return runCampaign(*campaignN, *campaignSeed, *jobs, *campaignCorpus)
	}

	if *list || *exp == "list" {
		// Same listing the server's GET /v1/experiments catalog serves.
		os.Stdout.WriteString(experiments.Listing())
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "repro: -exp required (or -list); e.g. -exp fig1a or -exp all")
		return 2
	}

	var todo []experiments.Experiment
	if *exp == "all" {
		todo = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := experiments.Get(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			todo = append(todo, e)
		}
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	// SIGINT/SIGTERM drain the suite gracefully: no new sweep points are
	// scheduled, in-flight simulations stop cooperatively, and whatever
	// already completed still prints. A second signal kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := experiments.Options{Quick: *quick, Jobs: *jobs, Timeout: *timeout,
		Faults: *faults, Retries: *retries, Ctx: ctx}
	if *progress {
		opts.Progress = os.Stderr
	}

	// One registry per experiment when observability output is requested:
	// counters stay attributable to their experiment, and the files below
	// are written in registration order, independent of scheduling.
	var regs []*metrics.Registry
	if *metOut != "" || *traceOut != "" {
		regs = make([]*metrics.Registry, len(todo))
		for i := range regs {
			regs[i] = metrics.New()
			if *traceOut != "" {
				regs[i].EnableTracing()
			}
		}
	}

	jobList := make([]runner.Job, len(todo))
	for i, e := range todo {
		i, e := i, e
		jobList[i] = runner.Job{
			ID:     e.ID,
			Labels: map[string]string{"experiment": e.ID},
			Run: func(context.Context) (interface{}, error) {
				start := time.Now()
				jopts := opts
				if regs != nil {
					jopts.Metrics = regs[i]
				}
				res, err := e.Run(jopts)
				if err != nil {
					return nil, err
				}
				oc := &outcome{res: res, body: render(res, *csv, *plot), wall: time.Since(start)}
				if regs != nil {
					oc.simEvents = regs[i].Counter("sim.events_dispatched").Value()
				}
				return oc, nil
			},
		}
	}

	// Stream bodies to stdout in submission (registration) order as soon
	// as each experiment and all of its predecessors are done; the runner
	// serializes OnResult calls.
	pending := make(map[int]string, len(jobList))
	nextOut := 0
	pool := &runner.Pool{
		Workers: *jobs,
		Name:    "repro",
		OnResult: func(i int, r runner.Result) {
			body := ""
			if o, ok := r.Value.(*outcome); ok {
				body = o.body
			}
			pending[i] = body
			for {
				b, ok := pending[nextOut]
				if !ok {
					break
				}
				os.Stdout.WriteString(b)
				delete(pending, nextOut)
				nextOut++
			}
		},
	}
	if len(todo) > 1 {
		pool.Progress = os.Stderr
	}
	suiteStart := time.Now()
	results := pool.Run(ctx, jobList)
	if ctx.Err() != nil {
		stop() // restore default handling before reporting
		fmt.Fprintln(os.Stderr, "repro: interrupted; draining finished, partial results above")
	}

	// Per-experiment wall-time summary; failures listed explicitly so an
	// error in a late experiment cannot scroll past unnoticed. Under
	// -chaos-strict a death by the installed fault plan (an IB QP entering
	// the error state after retry exhaustion — a modeled, deterministic
	// outcome) is tolerated, so the exit code stays meaningful for every
	// OTHER kind of failure instead of being masked wholesale.
	failed, tolerated := 0, 0
	fmt.Fprintf(os.Stderr, "repro: %d experiment(s), jobs=%d, wall %v\n",
		len(todo), *jobs, time.Since(suiteStart).Round(time.Millisecond))
	for i, r := range results {
		e := todo[i]
		if r.Err != nil {
			if *strict && *faults != "" && strings.Contains(r.Err.Error(), "retry budget exhausted") {
				tolerated++
				fmt.Fprintf(os.Stderr, "  %-8s killed by fault plan in %8v (tolerated): %v\n",
					e.ID, r.Wall.Round(time.Millisecond), r.Err)
				continue
			}
			failed++
			fmt.Fprintf(os.Stderr, "  %-8s FAILED after %8v: %v\n", e.ID, r.Wall.Round(time.Millisecond), r.Err)
			continue
		}
		oc := r.Value.(*outcome)
		fmt.Fprintf(os.Stderr, "  %-8s ok in %8v\n", e.ID, oc.wall.Round(time.Millisecond))
		if *out != "" {
			if err := writeArtifacts(*out, e, oc, opts, *csv, *timeout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
	}
	if *metOut != "" {
		if err := writeMetrics(*metOut, todo, regs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, todo, regs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if tolerated > 0 {
		fmt.Fprintf(os.Stderr, "repro: %d of %d experiments killed by the fault plan (tolerated under -chaos-strict)\n",
			tolerated, len(todo))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "repro: %d of %d experiments failed\n", failed, len(todo))
		return 1
	}
	if ctx.Err() != nil {
		// A drained sweep still renders its completed points, so nothing
		// above "failed" — but an interrupted run is not a clean one.
		return 130
	}
	return 0
}

// runCampaign executes a behavioral-contract campaign (internal/campaign):
// generate scenarios from the seed, check every contract on each, shrink
// violations to minimal reproducers. Stdout carries the deterministic
// report (identical for a given seed at any -jobs); progress goes to
// stderr. Exit is 0 only when every contract held.
func runCampaign(count int, seed uint64, jobs int, corpusDir string) int {
	rep, err := campaign.Run(campaign.Config{
		Seed:      seed,
		Count:     count,
		Jobs:      jobs,
		CorpusDir: corpusDir,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("campaign: seed %d, %d scenarios, %d contracts\n", rep.Seed, rep.Scenarios, len(campaign.Catalog))
	fmt.Printf("campaign: report digest %s\n", rep.Digest)
	if len(rep.Violations) == 0 {
		fmt.Println("campaign: all contracts held (0 violations)")
		return 0
	}
	fmt.Printf("campaign: %d violation(s):\n", len(rep.Violations))
	for i := range rep.Violations {
		v := &rep.Violations[i]
		fmt.Printf("  %s %s: %s\n    scenario: %s\n    shrunk by %d step(s)\n",
			v.Contract, v.Name, v.Detail, v.Scenario.Canonical(), len(v.Lineage))
		// Point at the registered experiment that replays the same traffic
		// pattern under the same fault plan, for paper-scale diagnosis.
		if spec, err := experiments.CampaignSpec(v.Scenario.Workload, v.Scenario.Faults); err == nil {
			hint := "-exp " + spec.Experiment
			if spec.Faults != "" {
				hint += fmt.Sprintf(" -faults %q", spec.Faults)
			}
			fmt.Printf("    nearest full sweep: repro %s\n", hint)
		}
	}
	if corpusDir != "" {
		if err := writeCampaignReport(corpusDir, rep, jobs); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	return 1
}

// writeCampaignReport stores the violation summary as a checksummed
// runner artifact (corpusDir/campaign.json) carrying the shrink lineage
// of every reproducer — the machine-readable companion to the bc-*.json
// corpus entries, in the same self-verifying format as experiment
// artifacts.
func writeCampaignReport(dir string, rep *campaign.Report, jobs int) error {
	table := runner.Table{
		Title:   "Behavioral-contract violations",
		Headers: []string{"contract", "name", "scenario", "detail"},
	}
	var lineage []string
	for i := range rep.Violations {
		v := &rep.Violations[i]
		table.Rows = append(table.Rows, []string{v.Contract, v.Name, v.Scenario.Canonical(), v.Detail})
		for _, step := range v.Lineage {
			lineage = append(lineage, v.FileName()+": "+step)
		}
	}
	a := &runner.Artifact{
		Experiment: "campaign",
		Title:      fmt.Sprintf("Campaign seed %d: %d violation(s) over %d scenarios", rep.Seed, len(rep.Violations), rep.Scenarios),
		Meta:       runner.Meta{Seed: rep.Seed, Jobs: jobs, CreatedAt: time.Now().UTC().Format(time.RFC3339)},
		Notes:      []string{"report digest " + rep.Digest},
		Lineage:    lineage,
	}
	a.Tables = []runner.Table{table}
	_, err := a.Write(dir)
	return err
}

// writeMetrics stores one counters/gauges/histograms snapshot per
// experiment, in registration order.
func writeMetrics(path string, todo []experiments.Experiment, regs []*metrics.Registry) error {
	type expSnapshot struct {
		Experiment string `json:"experiment"`
		metrics.Snapshot
	}
	snaps := make([]expSnapshot, len(todo))
	for i, e := range todo {
		snaps[i] = expSnapshot{Experiment: e.ID, Snapshot: regs[i].Snapshot()}
	}
	data, err := json.MarshalIndent(snaps, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTrace merges every experiment's timeline tracks into one
// chrome://tracing-loadable file.
func writeTrace(path string, todo []experiments.Experiment, regs []*metrics.Registry) error {
	sources := make([]metrics.TraceSource, len(todo))
	for i, e := range todo {
		sources[i] = metrics.TraceSource{Label: e.ID, Reg: regs[i]}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := metrics.WriteChromeTrace(f, sources...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// render produces the stdout/.txt body for one experiment.
func render(res *experiments.Result, csv, plot bool) string {
	if csv {
		var b strings.Builder
		for _, t := range res.Tables {
			b.WriteString(t.CSV())
			b.WriteString("\n")
		}
		return b.String()
	}
	body := res.String()
	if plot {
		for _, tb := range res.Tables {
			if c := report.ChartFromTable(tb, 64, 16, true); c != nil {
				body += "\n" + tb.Title + "\n" + c.String()
			}
		}
	}
	return body
}

// writeArtifacts stores the rendered body (.txt or .csv) and the
// machine-readable JSON artifact for one experiment.
func writeArtifacts(dir string, e experiments.Experiment, oc *outcome,
	opts experiments.Options, csv bool, timeout time.Duration) error {
	ext := ".txt"
	if csv {
		ext = ".csv"
	}
	if err := os.WriteFile(filepath.Join(dir, e.ID+ext), []byte(oc.body), 0o644); err != nil {
		return err
	}
	a := &runner.Artifact{
		Experiment: e.ID,
		Title:      oc.res.Title,
		Meta: runner.Meta{
			Quick:     opts.Quick,
			Jobs:      opts.Jobs,
			Seed:      experiments.CanonicalSeed,
			TimeoutMS: float64(timeout) / float64(time.Millisecond),
			WallMS:    float64(oc.wall) / float64(time.Millisecond),
			GoVersion: runtime.Version(),
			CreatedAt: time.Now().UTC().Format(time.RFC3339),
			SimEvents: oc.simEvents,
		},
		Notes:    oc.res.Notes,
		Failures: oc.res.Failures,
	}
	if oc.simEvents > 0 && oc.wall > 0 {
		a.Meta.EventsPerSec = float64(oc.simEvents) / oc.wall.Seconds()
	}
	for _, t := range oc.res.Tables {
		a.Tables = append(a.Tables, runner.Table{Title: t.Title, Headers: t.Headers, Rows: t.Rows})
	}
	_, err := a.Write(dir)
	return err
}
