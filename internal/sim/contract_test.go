package sim

// Regression tests for the kernel's clock and stop contracts:
//
//   - RunUntil advances the clock to the deadline on a clean return, both
//     when the queue drains early and when the next event lies beyond the
//     deadline (previously the clock stuck at the last dispatched event).
//   - Stop issued before a run is honored by the next Run/RunUntil and is
//     consumed by it (previously a pre-run Stop was silently discarded).
//
// Plus coverage for Shutdown after deadlock/error (no goroutine leaks,
// idempotent) and After with negative durations.

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/units"
)

func TestRunUntilAdvancesClockWhenQueueDrains(t *testing.T) {
	e := NewEngine()
	e.After(units.Microsecond, func() {})
	deadline := units.Time(10 * units.Microsecond)
	if err := e.RunUntil(deadline); err != nil {
		t.Fatal(err)
	}
	if e.Now() != deadline {
		t.Fatalf("clock = %v after drained RunUntil(%v); want the deadline", e.Now(), deadline)
	}
}

func TestRunUntilAdvancesClockPastGapToDeadline(t *testing.T) {
	e := NewEngine()
	var count int
	e.After(units.Microsecond, func() { count++ })
	e.After(20*units.Microsecond, func() { count++ })
	deadline := units.Time(10 * units.Microsecond)
	if err := e.RunUntil(deadline); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("dispatched %d events before deadline, want 1", count)
	}
	if e.Now() != deadline {
		t.Fatalf("clock = %v with next event beyond deadline; want %v", e.Now(), deadline)
	}
	// The future event is intact and runs on the next call.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 || e.Now() != units.Time(20*units.Microsecond) {
		t.Fatalf("after resume: count=%d now=%v", count, e.Now())
	}
}

func TestRunUntilClockNeverMovesBackward(t *testing.T) {
	e := NewEngine()
	e.After(10*units.Microsecond, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// A deadline already in the past must leave the clock alone.
	if err := e.RunUntil(units.Time(5 * units.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if e.Now() != units.Time(10*units.Microsecond) {
		t.Fatalf("clock moved backward to %v", e.Now())
	}
}

func TestRunForeverLeavesClockAtLastEvent(t *testing.T) {
	// Run() is RunUntil(Forever); the sentinel must never become the clock.
	e := NewEngine()
	e.After(3*units.Microsecond, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != units.Time(3*units.Microsecond) {
		t.Fatalf("clock = %v after Run, want 3us", e.Now())
	}
}

func TestStopBeforeRunIsHonored(t *testing.T) {
	e := NewEngine()
	var count int
	e.After(units.Microsecond, func() { count++ })
	e.Stop()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("pre-run Stop ignored: %d event(s) dispatched", count)
	}
	if e.Now() != 0 {
		t.Fatalf("clock advanced to %v by a stopped run", e.Now())
	}
	// The Stop is one-shot: the next run proceeds normally.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("run after consumed Stop dispatched %d event(s), want 1", count)
	}
}

func TestStopMidRunLeavesClockAtStopEvent(t *testing.T) {
	e := NewEngine()
	for i := 1; i <= 3; i++ {
		i := i
		e.After(units.Duration(i)*units.Microsecond, func() {
			if i == 2 {
				e.Stop()
			}
		})
	}
	if err := e.RunUntil(units.Time(10 * units.Microsecond)); err != nil {
		t.Fatal(err)
	}
	// An early (stopped) return must not advance to the deadline.
	if e.Now() != units.Time(2*units.Microsecond) {
		t.Fatalf("clock = %v after Stop, want 2us", e.Now())
	}
}

func TestShutdownAfterDeadlockReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	s := e.NewSignal("never")
	for i := 0; i < 8; i++ {
		e.Spawn("waiter", func(p *Proc) { p.Wait(s) })
	}
	if err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	e.Shutdown()
	// Poll: the goroutine behind a stopped coroutine may lag its exit.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: %d before, %d after Shutdown", before, n)
	}
}

func TestShutdownAfterProcPanic(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("never")
	blocked := e.Spawn("blocked", func(p *Proc) { p.Wait(s) })
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(units.Microsecond)
		panic("boom")
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected panic error")
	}
	e.Shutdown()
	if !blocked.Done() {
		t.Fatal("blocked process not unwound after error")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("never")
	p := e.Spawn("w", func(p *Proc) { p.Wait(s) })
	if err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	e.Shutdown()
	e.Shutdown() // all processes already done; must not block or panic
	if !p.Done() {
		t.Fatal("process not done after Shutdown")
	}
}

func TestAfterNegativeDurationClampsToNow(t *testing.T) {
	e := NewEngine()
	var at Time
	e.After(4*units.Microsecond, func() {
		e.After(-units.Microsecond, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != units.Time(4*units.Microsecond) {
		t.Fatalf("negative After fired at %v, want clamped to 4us", at)
	}
}
