package runner

// Hardening-edge coverage: Failures() labeling when one sweep mixes
// panicking, timing-out, succeeding and deterministically failing jobs.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ib"
)

// TestMixedStormAttemptsAndFailures runs one pool over a storm of mixed
// failure modes and pins down, per job: how often it ran, the final error
// type, and the Failures() record — in submission order, with the
// succeeding job absent.
func TestMixedStormAttemptsAndFailures(t *testing.T) {
	var panicRuns atomic.Int64
	jobs := []Job{
		{
			ID:     "always-panics",
			Labels: map[string]string{"mode": "panic"},
			Run: func(context.Context) (interface{}, error) {
				panicRuns.Add(1)
				panic("storm")
			},
		},
		{
			ID:     "always-times-out",
			Labels: map[string]string{"mode": "timeout"},
			Run: func(ctx context.Context) (interface{}, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			},
		},
		{
			ID:     "fine",
			Labels: map[string]string{"mode": "ok"},
			Run:    func(context.Context) (interface{}, error) { return "ok", nil },
		},
		{
			ID:     "deterministic-error",
			Labels: map[string]string{"mode": "simerr"},
			Run: func(context.Context) (interface{}, error) {
				return nil, fmt.Errorf("ib: QP error: %w after 7 retransmissions", ib.ErrRetryExhausted)
			},
		},
	}
	pool := &Pool{Workers: 2, Timeout: 5 * time.Millisecond}
	results := pool.Run(context.Background(), jobs)

	var pe *PanicError
	if !errors.As(results[0].Err, &pe) {
		t.Fatalf("always-panics: err=%v, want PanicError", results[0].Err)
	}
	if got := panicRuns.Load(); got != 1 {
		t.Fatalf("always-panics ran %d times, want 1", got)
	}
	var te *TimeoutError
	if !errors.As(results[1].Err, &te) {
		t.Fatalf("always-times-out: err=%v, want TimeoutError", results[1].Err)
	}
	if r := results[2]; r.Err != nil || r.Value != "ok" {
		t.Fatalf("fine: err=%v value=%v, want success", r.Err, r.Value)
	}
	if results[3].Err == nil {
		t.Fatal("deterministic-error: no error")
	}

	fails := Failures(results)
	if len(fails) != 3 {
		t.Fatalf("Failures() = %d records, want 3 (the succeeding job is not a failure)", len(fails))
	}
	wantJobs := []string{"always-panics", "always-times-out", "deterministic-error"}
	for i, f := range fails {
		if f.Job != wantJobs[i] {
			t.Fatalf("failure[%d] = %s, want %s", i, f.Job, wantJobs[i])
		}
		if f.Labels["mode"] == "" {
			t.Fatalf("failure[%d] lost its labels", i)
		}
		if f.Cause == "" {
			t.Fatalf("failure[%d] has no cause", i)
		}
	}
	// Causes are structurally stable strings (no addresses, no stacks):
	// the panic failure names the job, the timeout names the limit.
	if want := fmt.Sprintf("%q", "always-panics"); !strings.Contains(fails[0].Cause, want) {
		t.Fatalf("panic cause %q does not name the job", fails[0].Cause)
	}
	if !strings.Contains(fails[1].Cause, "5ms") {
		t.Fatalf("timeout cause %q does not name the limit", fails[1].Cause)
	}
	// A failure keeps its error, so a fault plan's kill is recognised by
	// its sentinel, not by its text.
	if !errors.Is(fails[2].Err, ib.ErrRetryExhausted) {
		t.Fatalf("deterministic-error: Err %v does not wrap ib.ErrRetryExhausted", fails[2].Err)
	}
	if errors.Is(fails[0].Err, ib.ErrRetryExhausted) || errors.Is(fails[1].Err, ib.ErrRetryExhausted) {
		t.Fatal("a panic or timeout reads as a fault-plan kill")
	}
}
