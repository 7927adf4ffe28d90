package sim

// Tests for the coroutine process switch and the dispatch loop a parked
// process runs on its own stack: a warmed resume allocates nothing on any
// path, a run ends on a process stack exactly as on the scheduler's, and
// Shutdown unwinds a process in every state and releases its coroutine.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/units"
)

// resumeWorkload returns an engine on which every process resume, once
// running, takes one path, and the picoseconds between two resumes:
//
//   - "self": a process sleeps 2 ps at a time and a callback fires between
//     its wakes, so the callback runs on the process's stack and the
//     process resumes itself with no switch;
//   - "handoff": two processes sleep 2 ps at a time, one picosecond apart,
//     so each one's stack hands off to the other;
//   - "nested": three processes sleep 3 ps at a time, one picosecond
//     apart, so the first's stack resumes the second, whose stack resumes
//     the third, whose loop then unwinds two levels to the first.
func resumeWorkload(kind string) (*Engine, Time) {
	e := NewEngine()
	sleeper := func(p *Proc) {
		for {
			p.Sleep(2)
		}
	}
	switch kind {
	case "self":
		e.Spawn("sleeper", sleeper)
		var tick func()
		tick = func() { e.After(2, tick) }
		e.At(1, tick)
		return e, 2
	case "handoff":
		e.Spawn("even", sleeper)
		e.Spawn("odd", func(p *Proc) {
			p.Sleep(1)
			sleeper(p)
		})
		return e, 1
	case "nested":
		for i := 0; i < 3; i++ {
			e.Spawn(fmt.Sprint("nested", i), func(p *Proc) {
				p.Sleep(Duration(i))
				for {
					p.Sleep(3)
				}
			})
		}
		return e, 1
	}
	panic("unknown resume workload " + kind)
}

// TestProcSwitchDoesNotAllocate guards the zero-alloc contract of the
// process switch: once the event heap has grown, a process sleeping one
// tick at a time (schedule, park, resume) allocates nothing, and neither
// does a resume on any path of resumeWorkload: itself, a direct handoff,
// or a resume three deep that unwinds two levels.
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
	for _, kind := range []string{"self", "handoff", "nested"} {
		e, _ := resumeWorkload(kind)
		if err := e.RunUntil(1024); err != nil {
			t.Fatal(err)
		}
		before := e.Events()
		allocs := testing.AllocsPerRun(200, func() {
			if err := e.RunUntil(e.Now() + 64); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s resume allocates: %v allocs per run, want 0", kind, allocs)
		}
		if e.Events() < before+200*64 {
			t.Errorf("%s: %d events in the measured runs; the loop stalled", kind, e.Events()-before)
		}
		e.Shutdown()
	}
}

// BenchmarkProcResume times one process resume on each path of
// resumeWorkload: a process resuming itself after a callback ran on its
// stack, one process's stack handing off to another, and resumes nested
// three deep.
func BenchmarkProcResume(b *testing.B) {
	for _, kind := range []string{"self", "handoff", "nested"} {
		b.Run(kind, func(b *testing.B) {
			e, gap := resumeWorkload(kind)
			defer e.Shutdown()
			if err := e.RunUntil(1024); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.RunUntil(e.Now() + Time(b.N)*gap); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// chainDepth counts the processes on e's resume chain.
func chainDepth(e *Engine) int {
	n := 0
	for _, p := range e.procs {
		if p.inChain {
			n++
		}
	}
	return n
}

// settle waits for the goroutine count to fall back to before.
func settle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: %d before, %d after Shutdown", before, n)
	}
}

// TestEventPanicOnProcStack: a callback that panics while dispatched on a
// parked process's stack ends the run with the error it gives on the
// scheduler's, naming the event's time; no queued event runs after it,
// and Shutdown leaves no goroutine behind. The blocked process resumes
// each sleeper in turn from its own stack, so the panic comes with
// processes nested two, and four, deep.
func TestEventPanicOnProcStack(t *testing.T) {
	for _, sleepers := range []int{1, 3} {
		t.Run(fmt.Sprint("sleepers=", sleepers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine()
			s := e.NewSignal("never")
			blocked := e.Spawn("blocked", func(p *Proc) { p.Wait(s) })
			for i := 0; i < sleepers; i++ {
				e.Spawn("sleeper", func(p *Proc) { p.Sleep(2 * units.Microsecond) })
			}
			at := units.Time(units.Microsecond)
			onStack, depth, ran := false, 0, 0
			e.At(at, func() {
				onStack, depth = e.host != nil, chainDepth(e)
				panic("kaboom")
			})
			e.At(at, func() { ran++ })
			e.At(at.Add(units.Microsecond), func() { ran++ })
			err := e.Run()
			if !onStack || depth != sleepers+1 {
				t.Fatalf("the panicking callback ran on a process stack: %v, %d deep; want true, %d",
					onStack, depth, sleepers+1)
			}
			if err == nil || err != e.Err() {
				t.Fatalf("Run = %v, Err = %v; want the same recorded error", err, e.Err())
			}
			if want := "sim: panic in event at t=1us: kaboom\n"; !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("err = %q, want prefix %q", err, want)
			}
			if ran != 0 || e.Now() != at {
				t.Fatalf("%d queued events ran after the panic, clock %v; want 0 at %v", ran, e.Now(), at)
			}
			if d := chainDepth(e); d != 0 {
				t.Fatalf("%d processes still on the resume chain after the run", d)
			}
			if again := e.Run(); again != err {
				t.Fatalf("second Run = %v, want the first error", again)
			}
			e.Shutdown()
			if !blocked.Done() {
				t.Fatal("blocked process not unwound by Shutdown")
			}
			settle(t, before)
		})
	}
}

// TestRunEndsOnProcStackAsOnScheduler: a run that ends while its dispatch
// loop runs on a parked process's stack (event limit, a context canceled
// mid-run, Fail, Stop or the deadline) ends at the same event, with the
// same error and clock, as its callback-only twin, in which callbacks
// holding the processes' keys stand in for them. With three processes,
// each resumed from the stack of the one before, the run ends three deep
// and unwinds to the scheduler; Shutdown then leaves no goroutine behind.
func TestRunEndsOnProcStackAsOnScheduler(t *testing.T) {
	type end struct {
		name                     string
		limit                    uint64
		cancelAt, failAt, stopAt int
		deadline                 Time
	}
	type outcome struct {
		err    string
		events uint64
		ticks  int
		now    Time
		depth  int // resume chain depth at the last callback
	}
	run := func(procs int, twin bool, c end) outcome {
		e := NewEngine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		e.SetContext(ctx)
		e.SetEventLimit(c.limit)
		for i := 0; i < procs; i++ {
			if !twin {
				e.Spawn("sleeper", func(p *Proc) { p.Sleep(units.Millisecond) })
			} else {
				e.After(0, func() { e.At(units.Time(units.Millisecond), func() {}) })
			}
		}
		var o outcome
		var tick func()
		tick = func() {
			o.ticks++
			o.depth = chainDepth(e)
			if (e.host != nil) != (o.depth > 0) {
				panic("dispatching on a process stack off the resume chain")
			}
			switch o.ticks {
			case c.cancelAt:
				cancel()
			case c.failAt:
				e.Fail(errors.New("model failure"))
			case c.stopAt:
				e.Stop()
			}
			if o.ticks < 20_000 { // every case ends the run well before
				e.After(units.Nanosecond, tick)
			}
		}
		e.After(0, tick)
		err := e.RunUntil(c.deadline)
		if d := chainDepth(e); d != 0 {
			panic(fmt.Sprintf("%d processes still on the resume chain after the run", d))
		}
		e.Shutdown()
		o.err, o.events, o.now = fmt.Sprint(err), e.Events(), e.Now()
		return o
	}
	const forever = units.Forever
	for _, c := range []end{
		{name: "limit=100", limit: 100, deadline: forever},
		{name: "limit=poll", limit: pollEvery, deadline: forever},
		{name: "limit=3poll+17", limit: 3*pollEvery + 17, deadline: forever},
		{name: "cancel", cancelAt: 5000, deadline: forever},
		{name: "cancel+limit", limit: 1 << 40, cancelAt: 5000, deadline: forever},
		{name: "fail", failAt: 777, deadline: forever},
		{name: "stop", stopAt: 777, deadline: forever},
		{name: "deadline", deadline: units.Time(5 * units.Microsecond)},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var twin outcome
			for _, procs := range []int{1, 3} {
				got := run(procs, false, c)
				twin = run(procs, true, c)
				if got.depth != procs || twin.depth != 0 {
					t.Fatalf("chain depth at the last callback: %d with %d processes, %d without; want %d, 0",
						got.depth, procs, twin.depth, procs)
				}
				got.depth = 0
				if got != twin {
					t.Fatalf("with %d processes %+v, callback-only %+v", procs, got, twin)
				}
			}
			switch {
			case c.limit > 0 && c.cancelAt == 0 && !strings.Contains(twin.err, ErrEventLimit.Error()),
				c.cancelAt > 0 && !strings.Contains(twin.err, ErrCanceled.Error()),
				c.failAt > 0 && twin.err != "model failure",
				(c.stopAt > 0 || c.deadline != forever) && twin.err != "<nil>":
				t.Fatalf("err = %s", twin.err)
			}
			settle(t, before)
		})
	}
}

// TestShutdownDispatchesNothing: a process whose deferred code blocks
// again while Shutdown unwinds it dispatches no event, even with one due
// before the last run's deadline.
func TestShutdownDispatchesNothing(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("never")
	unwound := false
	e.Spawn("blocker", func(p *Proc) {
		defer func() {
			unwound = true
			p.Sleep(units.Microsecond)
		}()
		p.Wait(s)
	})
	ran := false
	e.After(units.Microsecond, e.Stop)
	e.After(units.Microsecond, func() { ran = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	events := e.Events()
	e.Shutdown()
	if !unwound {
		t.Fatal("the process's deferred calls did not run")
	}
	if ran || e.Events() != events {
		t.Fatalf("Shutdown dispatched %d event(s), the pending callback ran: %v", e.Events()-events, ran)
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
			t.Errorf("%s not done after Shutdown", p.name)
		}
	}
	if started {
		t.Error("a process stopped before its first dispatch ran its body")
	}
	if !unwound {
		t.Error("the parked process's deferred calls did not run")
	}
	settle(t, before)
}
