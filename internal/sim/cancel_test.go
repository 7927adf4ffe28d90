package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/units"
)

// cancelWorkload schedules a mixed workload of callbacks and processes on
// e: four callback chains and three sleeping processes, with delays from a
// fixed LCG that include zero (same-instant events) and ties. Every
// dispatched callback and process resume appends "time:id" to the returned
// log; ids are handed out in scheduling order, so the log records the
// event keys. stepsPerChain bounds the run; hook, when non-nil, runs
// before each callback logs, with the number of callbacks run so far.
func cancelWorkload(e *Engine, stepsPerChain int, hook func(n int)) *[]string {
	log := new([]string)
	state := uint64(2026)
	next := func() units.Duration {
		state = state*6364136223846793005 + 1442695040888963407
		return units.Duration(state>>60) * units.Nanosecond // 0..15 ns
	}
	id, ran := 0, 0
	for c := 0; c < 4; c++ {
		left := stepsPerChain
		var step func()
		schedule := func() {
			id++
			me := id
			e.After(next(), func() {
				ran++
				if hook != nil {
					hook(ran)
				}
				*log = append(*log, fmt.Sprintf("%v:%d", e.Now(), me))
				step()
			})
		}
		step = func() {
			if left > 0 {
				left--
				schedule()
			}
		}
		step()
	}
	for p := 0; p < 3; p++ {
		name := fmt.Sprintf("p%d", p)
		e.Spawn(name, func(pr *Proc) {
			for i := 0; i < stepsPerChain/2; i++ {
				pr.Sleep(next())
				*log = append(*log, fmt.Sprintf("%v:%s", pr.Now(), name))
			}
		})
	}
	return log
}

// TestRunUntilCanceled: a run whose context is done before it starts —
// canceled or past its deadline — returns ErrCanceled, wrapping the
// context's error, and dispatches nothing; the engine keeps the error.
func TestRunUntilCanceled(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithTimeout(context.Background(), 0)
	defer cancelExpired()
	for _, ctx := range []context.Context{canceled, expired} {
		e := NewEngine()
		log := cancelWorkload(e, 100, nil)
		e.SetContext(ctx)
		err := e.RunUntil(units.Time(units.Second))
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, ctx.Err()) {
			t.Fatalf("err = %v, want ErrCanceled wrapping %v", err, ctx.Err())
		}
		if len(*log) != 0 || e.Events() != 0 || e.Now() != 0 {
			t.Fatalf("canceled run wrote %d entries, dispatched %d events, clock %v; want none",
				len(*log), e.Events(), e.Now())
		}
		if again := e.Run(); again != err {
			t.Fatalf("second Run = %v, want the kept error", again)
		}
		e.Shutdown()
	}
}

// TestCancelMidRun: a context canceled while the run is under way stops it
// within pollEvery events, with or without an event limit set.
func TestCancelMidRun(t *testing.T) {
	for _, limit := range []uint64{0, 1 << 40} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			const cancelAt = 5000
			e := NewEngine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ran, canceledAt := 0, uint64(0)
			cancelWorkload(e, 50000, func(n int) {
				ran = n
				if n == cancelAt {
					cancel()
					canceledAt = e.Events()
				}
			})
			e.SetContext(ctx)
			e.SetEventLimit(limit)
			err := e.Run()
			e.Shutdown()
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
			}
			if ran < cancelAt || e.Events() > canceledAt+pollEvery {
				t.Fatalf("stopped at event %d, callback %d; want within %d events of the cancel at event %d",
					e.Events(), ran, pollEvery, canceledAt)
			}
		})
	}
}

// TestContextLeavesRunUnchanged: a context that is never done changes
// nothing — the same event keys in the same order, the same event count
// and the same final clock as a run without one, over a run long enough
// to poll many times, in one Run and in many RunUntil steps.
func TestContextLeavesRunUnchanged(t *testing.T) {
	type outcome struct {
		log    []string
		events uint64
		now    Time
	}
	run := func(ctx context.Context, step units.Duration) outcome {
		e := NewEngine()
		e.SetContext(ctx)
		log := cancelWorkload(e, 12000, nil)
		if step == 0 {
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		} else {
			for e.Events() == 0 || len(e.events.ev) > 0 {
				if err := e.RunUntil(e.Now().Add(step)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return outcome{*log, e.Events(), e.Now()}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, step := range []units.Duration{0, 997 * units.Nanosecond} {
		plain, watched := run(nil, step), run(ctx, step)
		if plain.events < 10*pollEvery {
			t.Fatalf("step %v: only %d events; the run must span many polls", step, plain.events)
		}
		if plain.events != watched.events || plain.now != watched.now || len(plain.log) != len(watched.log) {
			t.Fatalf("step %v: without context %d events, clock %v, %d entries; with %d, %v, %d",
				step, plain.events, plain.now, len(plain.log), watched.events, watched.now, len(watched.log))
		}
		for i := range plain.log {
			if plain.log[i] != watched.log[i] {
				t.Fatalf("step %v: entry %d: %s without context, %s with", step, i, plain.log[i], watched.log[i])
			}
		}
	}
}

// TestEventLimitWithContext: with a context set, SetEventLimit(n) still
// ends the run at event n+1 exactly — n callbacks run — including limits
// on and either side of a poll boundary.
func TestEventLimitWithContext(t *testing.T) {
	for _, n := range []uint64{1, 100, pollEvery - 1, pollEvery, pollEvery + 1, 3*pollEvery + 17} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			e := NewEngine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			e.SetContext(ctx)
			e.SetEventLimit(n)
			ran := uint64(0)
			var tick func()
			tick = func() {
				ran++
				e.After(units.Nanosecond, tick)
			}
			e.After(0, tick)
			err := e.Run()
			if !errors.Is(err, ErrEventLimit) {
				t.Fatalf("err = %v, want event limit", err)
			}
			if ran != n || e.Events() != n+1 {
				t.Fatalf("ran %d callbacks, Events() = %d; want %d and %d", ran, e.Events(), n, n+1)
			}
		})
	}
}
