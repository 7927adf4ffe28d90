package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmissionOrder: results come back in submission order even when
// completion order is scrambled by staggered sleeps.
func TestSubmissionOrder(t *testing.T) {
	const n = 16
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{ID: fmt.Sprintf("j%d", i), Run: func(context.Context) (interface{}, error) {
			// Later submissions finish first.
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return i, nil
		}}
	}
	p := &Pool{Workers: 8}
	results := p.Run(context.Background(), jobs)
	if fails := Failures(results); len(fails) > 0 {
		t.Fatal(fails)
	}
	for i, r := range results {
		if r.Value.(int) != i {
			t.Fatalf("results[%d] = %v, want %d", i, r.Value, i)
		}
		if r.ID != fmt.Sprintf("j%d", i) {
			t.Fatalf("results[%d].ID = %q", i, r.ID)
		}
	}
}

// TestPanicIsolation: one panicking job yields a structured *PanicError
// naming its labels, while every other job still completes.
func TestPanicIsolation(t *testing.T) {
	const n = 10
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{
			ID:     fmt.Sprintf("sweep-%d", i),
			Labels: map[string]string{"net": "IB", "nodes": fmt.Sprint(i)},
			Run: func(context.Context) (interface{}, error) {
				if i == 3 {
					panic("simulated deadlock check blew up")
				}
				return i * i, nil
			},
		}
	}
	p := &Pool{Workers: 4}
	results := p.Run(context.Background(), jobs)
	for i, r := range results {
		if i == 3 {
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("job 3: got %v, want *PanicError", r.Err)
			}
			if pe.JobID != "sweep-3" {
				t.Errorf("PanicError.JobID = %q", pe.JobID)
			}
			msg := pe.Error()
			for _, want := range []string{"sweep-3", "net=IB", "nodes=3", "blew up"} {
				if !strings.Contains(msg, want) {
					t.Errorf("error %q lacks %q", msg, want)
				}
			}
			if !strings.Contains(pe.Stack, "goroutine") {
				t.Error("PanicError.Stack is empty")
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if r.Value.(int) != i*i {
			t.Fatalf("job %d value = %v", i, r.Value)
		}
	}
	if len(Failures(results)) == 0 {
		t.Fatal("Failures should list the panic")
	}
}

// TestCancellation: cancelling the sweep context skips unstarted jobs but
// lets in-flight jobs complete (graceful drain).
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started sync.WaitGroup
	started.Add(2)
	release := make(chan struct{})
	const n = 12
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{ID: fmt.Sprintf("j%d", i), Run: func(context.Context) (interface{}, error) {
			if i < 2 {
				started.Done()
				<-release // in-flight while the sweep is cancelled
			}
			return i, nil
		}}
	}
	p := &Pool{Workers: 2}
	var results []Result
	done := make(chan struct{})
	go func() {
		results = p.Run(ctx, jobs)
		close(done)
	}()
	started.Wait()
	cancel()
	close(release)
	<-done

	for i, r := range results {
		if i < 2 {
			if r.Err != nil || r.Value.(int) != i {
				t.Fatalf("in-flight job %d: %v, %v", i, r.Value, r.Err)
			}
			continue
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestTimeout: a job that runs past the pool's timeout sees its context
// done, stops, and reports a *TimeoutError that also matches
// context.DeadlineExceeded; fast jobs are unaffected. The pool waits for
// the stopped job: when Run returns, no job is still running.
func TestTimeout(t *testing.T) {
	var stopped atomic.Bool
	jobs := []Job{
		{ID: "fast", Run: func(context.Context) (interface{}, error) { return "ok", nil }},
		{ID: "stuck", Run: func(ctx context.Context) (interface{}, error) {
			<-ctx.Done() // simulates a sim that never converges and polls its context
			stopped.Store(true)
			return nil, ctx.Err()
		}},
	}
	p := &Pool{Workers: 2, Timeout: 20 * time.Millisecond}
	results := p.Run(context.Background(), jobs)
	if !stopped.Load() {
		t.Fatal("Run returned before the stuck job stopped")
	}
	if results[0].Err != nil || results[0].Value != "ok" {
		t.Fatalf("fast job: %+v", results[0])
	}
	var te *TimeoutError
	if !errors.As(results[1].Err, &te) {
		t.Fatalf("stuck job: got %v, want *TimeoutError", results[1].Err)
	}
	if te.JobID != "stuck" || te.Limit != p.Timeout {
		t.Errorf("TimeoutError = %+v", te)
	}
	if !errors.Is(results[1].Err, context.DeadlineExceeded) {
		t.Error("TimeoutError should match context.DeadlineExceeded")
	}
	if te.Err == nil || errors.Unwrap(results[1].Err) != te.Err {
		t.Errorf("TimeoutError does not unwrap to the job's error %v", te.Err)
	}
}

// TestCanceledJobIsNotATimeout: a job stopped because the caller canceled
// the sweep reports the cancellation, not a *TimeoutError, even when the
// pool has a timeout.
func TestCanceledJobIsNotATimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	results := (&Pool{Workers: 1, Timeout: time.Minute}).Run(ctx, []Job{{ID: "j",
		Run: func(jctx context.Context) (interface{}, error) {
			cancel()
			<-jctx.Done()
			return nil, jctx.Err()
		}}})
	var te *TimeoutError
	if err := results[0].Err; !errors.Is(err, context.Canceled) || errors.As(err, &te) {
		t.Fatalf("err = %v, want context.Canceled and no *TimeoutError", err)
	}
}

// TestJobContextDeadline: the job's context carries the deadline, so
// cooperative jobs can bail out early themselves.
func TestJobContextDeadline(t *testing.T) {
	jobs := []Job{{ID: "coop",
		Run: func(ctx context.Context) (interface{}, error) {
			if _, ok := ctx.Deadline(); !ok {
				return nil, errors.New("no deadline on job context")
			}
			return "ok", nil
		}}}
	results := (&Pool{Workers: 1, Timeout: 10 * time.Millisecond}).Run(context.Background(), jobs)
	if fails := Failures(results); len(fails) > 0 {
		t.Fatal(fails)
	}
}

// TestOnResultStreaming: OnResult fires exactly once per job, serially,
// with the submission index.
func TestOnResultStreaming(t *testing.T) {
	const n = 20
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{ID: fmt.Sprint(i), Run: func(context.Context) (interface{}, error) { return i, nil }}
	}
	seen := make([]bool, n)
	var calls int32
	p := &Pool{Workers: 4, OnResult: func(i int, r Result) {
		atomic.AddInt32(&calls, 1)
		if seen[i] {
			t.Errorf("index %d delivered twice", i)
		}
		seen[i] = true
		if r.Value.(int) != i {
			t.Errorf("index %d carries value %v", i, r.Value)
		}
	}}
	p.Run(context.Background(), jobs)
	if calls != n {
		t.Fatalf("OnResult fired %d times, want %d", calls, n)
	}
}

// TestProgressReporter: progress output ends with the completion summary.
func TestProgressReporter(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex
	w := lockedWriter{mu: &mu, b: &buf}
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprint(i), Run: func(context.Context) (interface{}, error) { return nil, nil }}
	}
	p := &Pool{Workers: 2, Progress: w, Name: "sweep"}
	p.Run(context.Background(), jobs)
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "sweep: 5/5 jobs") {
		t.Fatalf("progress output %q lacks final summary", out)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	b  *strings.Builder
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

// TestZeroJobs: an empty sweep is a no-op.
func TestZeroJobs(t *testing.T) {
	results := (&Pool{}).Run(context.Background(), nil)
	if len(results) != 0 {
		t.Fatal("expected no results")
	}
	if len(Failures(results)) != 0 {
		t.Fatal("no failure expected")
	}
}

// TestDefaultWorkers: the zero pool still runs everything.
func TestDefaultWorkers(t *testing.T) {
	jobs := make([]Job, 7)
	for i := range jobs {
		i := i
		jobs[i] = Job{ID: fmt.Sprint(i), Run: func(context.Context) (interface{}, error) { return i, nil }}
	}
	results := (&Pool{}).Run(context.Background(), jobs)
	if fails := Failures(results); len(fails) > 0 {
		t.Fatal(fails)
	}
	for i, r := range results {
		if r.Value.(int) != i {
			t.Fatalf("results[%d] = %v", i, r.Value)
		}
	}
}
