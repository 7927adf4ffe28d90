package sim

// Tests for the coroutine process switch: a warmed switch allocates
// nothing, and Shutdown unwinds a process in every state and releases its
// coroutine.

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/units"
)

// TestProcSwitchDoesNotAllocate guards the zero-alloc contract of the
// process switch: once the event heap has grown, a process sleeping one
// tick at a time (schedule, switch in, park, switch out) allocates nothing.
func TestProcSwitchDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	defer e.Shutdown()
	if err := e.RunUntil(1024); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := e.RunUntil(e.Now() + 64); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("process switch allocates: %v allocs per run, want 0", allocs)
	}
	if p.Done() {
		t.Fatal("ticker finished; the measured loop switched nothing")
	}
}

// TestShutdownEveryProcState covers the three states Shutdown meets: a
// process spawned but never dispatched (its body must never run), one
// parked mid-Wait (it unwinds, running its deferred calls), and one
// already done. All end done and every coroutine is released.
func TestShutdownEveryProcState(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	s := e.NewSignal("never")
	unwound := false
	parked := e.Spawn("parked", func(p *Proc) {
		defer func() { unwound = true }()
		p.Wait(s)
	})
	finished := e.Spawn("finished", func(p *Proc) { p.Sleep(units.Microsecond) })
	if err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	started := false
	fresh := e.Spawn("fresh", func(p *Proc) { started = true })

	e.Shutdown()
	for _, p := range []*Proc{fresh, parked, finished} {
		if !p.Done() {
			t.Errorf("%s not done after Shutdown", p.Name())
		}
	}
	if started {
		t.Error("a process stopped before its first dispatch ran its body")
	}
	if !unwound {
		t.Error("the parked process's deferred calls did not run")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: %d before, %d after Shutdown", before, n)
	}
}
