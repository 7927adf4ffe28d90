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
//   - context cancellation skips jobs that have not started and lets
//     in-flight simulations drain gracefully;
//   - per-job timeouts abandon runaway simulations with a *TimeoutError;
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
	// Timeout overrides the pool's per-job timeout when non-zero.
	Timeout time.Duration
	// Run performs the work. The context is cancelled when the job's
	// timeout expires or the caller cancels the sweep; simulations that
	// cannot observe it are abandoned on timeout (they finish into a
	// buffered channel nobody reads).
	Run func(ctx context.Context) (interface{}, error)
}

// Result is the outcome of one job, in submission order.
type Result struct {
	ID     string
	Labels map[string]string
	Value  interface{}
	Err    error
	Wall   time.Duration
	// Attempts counts executions of the job: 1 for a clean first run,
	// more when the pool retried a panic or timeout (see Pool.Retries).
	// Wall spans all attempts, including backoff.
	Attempts int
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

// TimeoutError reports a job abandoned at its deadline.
type TimeoutError struct {
	JobID string
	Limit time.Duration
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("runner: job %q exceeded timeout %v", e.JobID, e.Limit)
}

// Is lets errors.Is(err, context.DeadlineExceeded) match.
func (e *TimeoutError) Is(target error) bool { return target == context.DeadlineExceeded }

// Pool runs jobs on a bounded set of workers.
//
// The zero value is usable: GOMAXPROCS workers, no timeout, no progress.
type Pool struct {
	// Workers caps concurrency; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Timeout bounds each job unless the job sets its own; 0 = unbounded.
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

	// Retries re-runs a job that panicked or timed out up to this many
	// additional times before accepting the failure. Only infrastructure
	// failures (*PanicError, *TimeoutError) are retried: an ordinary error
	// returned by Job.Run comes from a deterministic simulation and would
	// simply recur. 0 disables retries; cancellation stops them early.
	Retries int
	// Backoff is the wait before the first retry, doubling per subsequent
	// retry and capped at 5s. <= 0 means 100ms. Purely wall-clock pacing
	// between attempts of a host-level failure; never observable in
	// results.
	Backoff time.Duration

	// progressLen is the length of the last progress line written, so a
	// shorter overwrite can pad over the previous line's tail. Accessed
	// only under the pool mutex (reportProgress's caller holds it).
	progressLen int
}

// Run executes all jobs and returns their results in submission order.
// It never returns an early error: per-job failures (including panics and
// timeouts) land in the corresponding Result.Err. Use FirstError to
// collapse the slice into a single error.
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
					// other workers) complete normally.
					r = Result{ID: jobs[i].ID, Labels: jobs[i].Labels,
						Err: fmt.Errorf("runner: job %q skipped: %w", jobs[i].ID, err)}
				} else {
					r = p.runWithRetries(ctx, jobs[i])
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

// runWithRetries executes one job, re-running infrastructure failures
// (panic, timeout) up to p.Retries times with capped exponential backoff.
// Simulations are deterministic, so a retry only helps when the failure is
// host-level (resource exhaustion, scheduling-induced timeout) — which is
// exactly what panics and timeouts signal. Deterministic failures recur and
// surface after the final attempt with the true attempt count.
func (p *Pool) runWithRetries(ctx context.Context, job Job) Result {
	r := p.runJob(ctx, job)
	r.Attempts = 1
	if p.Retries <= 0 {
		return r
	}
	start := time.Now() //simlint:allow wallclock — Wall is diagnostic
	for attempt := 1; attempt <= p.Retries; attempt++ {
		if !retryable(r.Err) || ctx.Err() != nil {
			break
		}
		time.Sleep(backoffDelay(p.Backoff, attempt)) //simlint:allow wallclock — retry pacing between host-level failures, never in results
		r = p.runJob(ctx, job)
		r.Attempts = attempt + 1
	}
	r.Wall = time.Since(start) //simlint:allow wallclock,timetaint — Wall is diagnostic
	return r
}

// maxBackoff caps the exponential retry backoff: past it, waiting longer
// cannot help a host-level failure, it only starves the sweep.
const maxBackoff = 5 * time.Second

// backoffDelay is the pure backoff schedule: the sleep before retry
// attempt n (1-based) given the pool's initial backoff — doubling each
// attempt, capped at maxBackoff. Non-positive initial means the 100ms
// default. Pure so the cap and growth are unit-testable without sleeping.
func backoffDelay(initial time.Duration, attempt int) time.Duration {
	if initial <= 0 {
		initial = 100 * time.Millisecond
	}
	d := initial
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= maxBackoff {
			return maxBackoff
		}
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	return d
}

// retryable reports whether err is an infrastructure failure worth
// re-running (as opposed to a deterministic simulation error).
func retryable(err error) bool {
	if err == nil {
		return false
	}
	var pe *PanicError
	var te *TimeoutError
	return errors.As(err, &pe) || errors.As(err, &te)
}

// runJob executes one job with panic recovery and an optional deadline.
func (p *Pool) runJob(ctx context.Context, job Job) Result {
	timeout := job.Timeout
	if timeout == 0 {
		timeout = p.Timeout
	}
	jctx := ctx
	var timerC <-chan time.Time
	if timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
		timer := time.NewTimer(timeout) //simlint:allow wallclock — real-time job timeout for runaway sims
		defer timer.Stop()
		timerC = timer.C
	}
	start := time.Now() //simlint:allow wallclock — Result.Wall diagnostics on stderr only
	ch := make(chan Result, 1)
	//simlint:allow goroutine — job body isolation (panic recovery + timeout abandonment)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				ch <- Result{Err: &PanicError{JobID: job.ID, Labels: job.Labels,
					Value: v, Stack: string(debug.Stack())}}
			}
		}()
		v, err := job.Run(jctx)
		ch <- Result{Value: v, Err: err}
	}()
	select {
	case r := <-ch:
		r.ID, r.Labels, r.Wall = job.ID, job.Labels, time.Since(start) //simlint:allow wallclock,timetaint — Wall is diagnostic
		return r
	case <-timerC:
		// Abandon the job: its context is cancelled so a cooperative
		// closure unwinds soon, and a runaway simulation finishes into the
		// buffered channel without blocking a worker.
		//simlint:allow wallclock,timetaint — Wall is diagnostic
		return Result{ID: job.ID, Labels: job.Labels, Wall: time.Since(start),
			Err: &TimeoutError{JobID: job.ID, Limit: timeout}}
	}
}

// FirstError returns the first failure in submission order (deterministic
// regardless of worker count), or nil if every job succeeded.
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// Map runs fn over items on pool p and returns the outputs in item order,
// or the first error in submission order. label (optional) names each job
// for panic/timeout attribution.
func Map[T, R any](ctx context.Context, p *Pool, items []T,
	label func(i int, item T) string,
	fn func(ctx context.Context, item T) (R, error)) ([]R, error) {
	jobs := make([]Job, len(items))
	for i, item := range items {
		i, item := i, item
		id := fmt.Sprintf("job-%d", i)
		var labels map[string]string
		if label != nil {
			id = label(i, item)
			labels = map[string]string{"job": id}
		}
		jobs[i] = Job{ID: id, Labels: labels,
			Run: func(ctx context.Context) (interface{}, error) { return fn(ctx, item) }}
	}
	results := p.Run(ctx, jobs)
	if err := FirstError(results); err != nil {
		return nil, err
	}
	out := make([]R, len(results))
	for i, r := range results {
		if r.Value != nil {
			out[i] = r.Value.(R)
		}
	}
	return out, nil
}
