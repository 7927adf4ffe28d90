// Package runner is the parallel experiment-execution engine: a worker
// pool that runs independent simulation jobs concurrently while keeping
// every observable output identical to a serial run.
//
// Each simulation owns a private discrete-event engine and is
// single-threaded and deterministic by design (DESIGN.md §5.2), so a
// sweep of (network, nodes, ppn) points is embarrassingly parallel. The
// runner exploits that while preserving the repository's reproducibility
// contract:
//
//   - results are assembled in submission order regardless of completion
//     order, so parallel output is byte-identical to serial output;
//   - a panicking job becomes a structured *PanicError naming the job
//     instead of killing the whole sweep;
//   - context cancellation skips jobs that have not started, and hands
//     in-flight jobs a done context, which a simulation polls and stops on;
//   - the per-job timeout is a deadline on the job's context, and a job
//     it stops reports a *TimeoutError;
//   - a job runs on its worker's goroutine, so when Run returns no job is
//     still running;
//   - an optional progress reporter prints done/total, elapsed, and ETA.
//
// As the boundary between deterministic simulations and the
// nondeterministic host, this package is the sanctioned home of the
// repository's wall-clock and goroutine exceptions. Each exception site
// carries a simlint annotation of the form
//
//	//simlint:allow check[,check...] [— reason]
//
// (checks: wallclock, goroutine, ...; see internal/lint) which
// suppresses the named analyzers on that line or the line below. Wall
// time feeds only operator-facing progress/ETA lines and Result.Wall
// diagnostics on stderr — never the result tables — and the worker-pool
// goroutines only ever run jobs that are themselves single-threaded
// deterministic simulations, so neither leaks into simulated output.
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one unit of work: an independent, self-contained closure
// (typically "build a simulated machine, run one configuration").
type Job struct {
	// ID names the job in errors and progress output.
	ID string
	// Labels carry the sweep coordinates (network, nodes, ppn, ...) so a
	// failure can be attributed without parsing the ID.
	Labels map[string]string
	// Run performs the work and must observe its context: the context is
	// done when the pool's timeout expires or the caller cancels the sweep,
	// and Run should then return the context's error (a simulation built
	// with platform.Options.Ctx does). The pool waits for Run to return.
	Run func(ctx context.Context) (interface{}, error)
}

// Result is the outcome of one job, in submission order.
type Result struct {
	ID     string
	Labels map[string]string
	Value  interface{}
	Err    error
	Wall   time.Duration
}

// PanicError is a job panic converted into a structured error. The sweep
// continues; the error names the failing job's labels and keeps the
// recovered value and stack for diagnosis.
type PanicError struct {
	JobID  string
	Labels map[string]string
	Value  interface{}
	Stack  string
}

// Error implements error.
func (e *PanicError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runner: job %q", e.JobID)
	if len(e.Labels) > 0 {
		keys := make([]string, 0, len(e.Labels))
		for k := range e.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + e.Labels[k]
		}
		fmt.Fprintf(&b, " [%s]", strings.Join(parts, " "))
	}
	fmt.Fprintf(&b, " panicked: %v", e.Value)
	return b.String()
}

// TimeoutError reports a job that its timeout stopped. Err is the error
// the job returned, which Unwrap exposes (a simulation's wraps
// sim.ErrCanceled).
type TimeoutError struct {
	JobID string
	Limit time.Duration
	Err   error
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("runner: job %q exceeded timeout %v", e.JobID, e.Limit)
}

// Is lets errors.Is(err, context.DeadlineExceeded) match.
func (e *TimeoutError) Is(target error) bool { return target == context.DeadlineExceeded }

// Unwrap returns the job's own error.
func (e *TimeoutError) Unwrap() error { return e.Err }

// Pool runs jobs on a bounded set of workers.
//
// The zero value is usable: GOMAXPROCS workers, no timeout, no progress.
type Pool struct {
	// Workers caps concurrency; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Timeout bounds each job; 0 = unbounded.
	Timeout time.Duration
	// Progress, when non-nil, receives carriage-return progress lines
	// (jobs done/total, elapsed, ETA). Point it at os.Stderr so result
	// tables on stdout stay byte-identical.
	Progress io.Writer
	// Name labels progress lines when several sweeps share a terminal.
	Name string
	// OnResult, when non-nil, is invoked as each job finishes with the
	// job's submission index. Calls are serialized (never concurrent),
	// but arrive in completion order, not submission order.
	OnResult func(index int, r Result)

	// progressLen is the length of the last progress line written, so a
	// shorter overwrite can pad over the previous line's tail. Accessed
	// only under the pool mutex (reportProgress's caller holds it).
	progressLen int
}

// Run executes all jobs and returns their results in submission order.
// It never returns an early error: per-job failures (including panics and
// timeouts) land in the corresponding Result.Err; Failures collects them.
func (p *Pool) Run(ctx context.Context, jobs []Job) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(jobs)
	results := make([]Result, n)
	if n == 0 {
		return results
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		next int64 = -1
		done int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now() //simlint:allow wallclock — progress/ETA reporting only, never in results
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//simlint:allow goroutine — worker pool running whole (internally deterministic) sims
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				var r Result
				if err := ctx.Err(); err != nil {
					// Graceful drain: jobs that have not started when the
					// sweep is cancelled are skipped; in-flight jobs (on
					// other workers) see it through their own contexts.
					r = Result{ID: jobs[i].ID, Labels: jobs[i].Labels,
						Err: fmt.Errorf("runner: job %q skipped: %w", jobs[i].ID, err)}
				} else {
					r = p.runJob(ctx, jobs[i])
				}
				results[i] = r
				d := int(atomic.AddInt64(&done, 1))
				mu.Lock()
				if p.OnResult != nil {
					p.OnResult(i, r)
				}
				p.reportProgress(d, n, workers, start)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results
}

// runJob executes one job on the calling worker's goroutine, under the
// pool's timeout and with panic recovery. The job observes its context
// and returns once it is done; a deadline error that the pool's own
// timeout caused becomes a *TimeoutError.
func (p *Pool) runJob(ctx context.Context, job Job) (r Result) {
	start := time.Now() //simlint:allow wallclock — Result.Wall diagnostics on stderr only
	jctx := ctx
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			r.Err = &PanicError{JobID: job.ID, Labels: job.Labels, Value: v, Stack: string(debug.Stack())}
		}
		if p.Timeout > 0 && errors.Is(r.Err, context.DeadlineExceeded) && ctx.Err() == nil {
			r.Err = &TimeoutError{JobID: job.ID, Limit: p.Timeout, Err: r.Err}
		}
		r.ID, r.Labels, r.Wall = job.ID, job.Labels, time.Since(start) //simlint:allow wallclock,timetaint — Wall is diagnostic
	}()
	r.Value, r.Err = job.Run(jctx)
	return r
}
