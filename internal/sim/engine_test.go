package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []string
	e.After(30*units.Nanosecond, func() { got = append(got, "c") })
	e.After(10*units.Nanosecond, func() { got = append(got, "a") })
	e.After(20*units.Nanosecond, func() { got = append(got, "b") })
	// Same-timestamp events run in scheduling order.
	e.After(20*units.Nanosecond, func() { got = append(got, "b2") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a b b2 c"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("order = %q, want %q", s, want)
	}
	if e.Now() != units.Time(30*units.Nanosecond) {
		t.Fatalf("final time = %v", e.Now())
	}
}

func TestEventInPastClamped(t *testing.T) {
	e := NewEngine()
	var ran bool
	e.After(10*units.Nanosecond, func() {
		e.At(0, func() { ran = true }) // in the past; clamps to now
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("past-scheduled event did not run")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var count int
	for i := 1; i <= 10; i++ {
		e.After(units.Duration(i)*units.Microsecond, func() { count++ })
	}
	if err := e.RunUntil(units.Time(5 * units.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake units.Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(7 * units.Microsecond)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != units.Time(7*units.Microsecond) {
		t.Fatalf("woke at %v", wake)
	}
}

func TestProcSleepZeroReturnsImmediately(t *testing.T) {
	e := NewEngine()
	order := []string{}
	e.Spawn("a", func(p *Proc) {
		p.Sleep(0)
		order = append(order, "a")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// "a" spawned first and Sleep(0) does not yield, so a runs first.
	if strings.Join(order, "") != "ab" {
		t.Fatalf("order = %v", order)
	}
}

func TestYieldLetsOthersRun(t *testing.T) {
	e := NewEngine()
	order := []string{}
	e.Spawn("a", func(p *Proc) {
		p.Yield()
		order = append(order, "a")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, "") != "ba" {
		t.Fatalf("order = %v", order)
	}
}

func TestSignalWaitBeforeFire(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("s")
	var woke units.Time
	e.Spawn("waiter", func(p *Proc) {
		p.Wait(s)
		woke = p.Now()
	})
	e.After(3*units.Microsecond, s.Fire)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != units.Time(3*units.Microsecond) {
		t.Fatalf("woke at %v", woke)
	}
	if !s.Fired() || s.FiredAt() != woke {
		t.Fatal("signal state wrong")
	}
}

func TestSignalWaitAfterFire(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("s")
	e.After(units.Microsecond, s.Fire)
	var ok bool
	e.Spawn("late", func(p *Proc) {
		p.Sleep(5 * units.Microsecond)
		p.Wait(s) // already fired; returns immediately
		ok = p.Now() == units.Time(5*units.Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("late waiter blocked on fired signal")
	}
}

func TestSignalDoubleFirePanics(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("s")
	e.After(0, s.Fire)
	e.After(0, s.Fire)
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "fired twice") {
		t.Fatalf("err = %v, want double-fire panic", err)
	}
}

func TestSignalOnFire(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("s")
	var times []units.Time
	s.OnFire(func() { times = append(times, e.Now()) })
	e.After(2*units.Microsecond, s.Fire)
	e.After(4*units.Microsecond, func() {
		s.OnFire(func() { times = append(times, e.Now()) }) // post-fire registration
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != units.Time(2*units.Microsecond) || times[1] != units.Time(4*units.Microsecond) {
		t.Fatalf("times = %v", times)
	}
}

func TestWaitAnyStaleWakeIsHarmless(t *testing.T) {
	e := NewEngine()
	s1 := e.NewSignal("s1")
	s2 := e.NewSignal("s2")
	var first int
	var laterWake units.Time
	e.Spawn("any", func(p *Proc) {
		first = p.WaitAny(s1, s2)
		// Now sleep; the stale registration on s2 must not cut this short.
		p.Sleep(10 * units.Microsecond)
		laterWake = p.Now()
	})
	e.After(1*units.Microsecond, s1.Fire)
	e.After(2*units.Microsecond, s2.Fire) // stale wake arrives mid-sleep
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Fatalf("WaitAny returned %d, want 0", first)
	}
	if laterWake != units.Time(11*units.Microsecond) {
		t.Fatalf("sleep ended at %v, want 11us", laterWake)
	}
}

func TestWaitAllOrdering(t *testing.T) {
	e := NewEngine()
	sigs := []*Signal{e.NewSignal("a"), e.NewSignal("b"), e.NewSignal("c")}
	e.After(3*units.Microsecond, sigs[2].Fire)
	e.After(1*units.Microsecond, sigs[0].Fire)
	e.After(2*units.Microsecond, sigs[1].Fire)
	var done units.Time
	e.Spawn("all", func(p *Proc) {
		p.WaitAll(sigs...)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != units.Time(3*units.Microsecond) {
		t.Fatalf("WaitAll completed at %v", done)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := e.NewQueue("q")
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p).(int))
		}
	})
	e.After(units.Microsecond, func() { q.Push(1); q.Push(2) })
	e.After(2*units.Microsecond, func() { q.Push(3) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("got %v", got)
	}
}

func TestQueueMultipleConsumers(t *testing.T) {
	e := NewEngine()
	q := e.NewQueue("q")
	got := map[string]int{}
	for _, name := range []string{"c1", "c2"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			got[name] = q.Pop(p).(int)
		})
	}
	e.After(units.Microsecond, func() { q.Push(10) })
	e.After(2*units.Microsecond, func() { q.Push(20) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// FIFO consumer wakeup: c1 parked first, receives first item.
	if got["c1"] != 10 || got["c2"] != 20 {
		t.Fatalf("got %v", got)
	}
}

func TestServerSerializes(t *testing.T) {
	e := NewEngine()
	s := e.NewServer("link")
	var done []units.Time
	e.After(0, func() {
		s.ServeThen(5*units.Microsecond, func() { done = append(done, e.Now()) })
		s.ServeThen(3*units.Microsecond, func() { done = append(done, e.Now()) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || done[0] != units.Time(5*units.Microsecond) || done[1] != units.Time(8*units.Microsecond) {
		t.Fatalf("done = %v", done)
	}
	if s.Served() != 2 || s.BusyTotal() != 8*units.Microsecond {
		t.Fatalf("stats: served=%d busy=%v", s.Served(), s.BusyTotal())
	}
}

func TestServerServeAtRespectsReadyTime(t *testing.T) {
	e := NewEngine()
	s := e.NewServer("link")
	var completions []units.Time
	e.After(0, func() {
		// Not ready until t=10us even though server is free.
		at := s.ServeAt(units.Time(10*units.Microsecond), 2*units.Microsecond)
		completions = append(completions, at)
		// Queued behind the first: starts at 12us.
		at = s.ServeAt(0, 1*units.Microsecond)
		completions = append(completions, at)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if completions[0] != units.Time(12*units.Microsecond) || completions[1] != units.Time(13*units.Microsecond) {
		t.Fatalf("completions = %v", completions)
	}
}

func TestServerOccupyBlocksProc(t *testing.T) {
	e := NewEngine()
	s := e.NewServer("cpu")
	var t1, t2 units.Time
	e.Spawn("p1", func(p *Proc) {
		s.Occupy(p, 4*units.Microsecond)
		t1 = p.Now()
	})
	e.Spawn("p2", func(p *Proc) {
		s.Occupy(p, 4*units.Microsecond)
		t2 = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if t1 != units.Time(4*units.Microsecond) || t2 != units.Time(8*units.Microsecond) {
		t.Fatalf("t1=%v t2=%v", t1, t2)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("never")
	e.Spawn("stuck", func(p *Proc) { p.Wait(s) })
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("deadlock report missing process name: %v", err)
	}
	e.Shutdown()
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(units.Microsecond)
		panic("boom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic capture", err)
	}
}

func TestEventPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.After(0, func() { panic("kaboom") })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func TestEventLimit(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(100)
	var tick func()
	tick = func() { e.After(units.Nanosecond, tick) }
	e.After(0, tick)
	err := e.Run()
	if !errors.Is(err, ErrEventLimit) {
		t.Fatalf("err = %v, want event limit", err)
	}
}

// TestFailKeepsFirstError: Fail ends the run after the failing event, and
// of several failures only the first is reported.
func TestFailKeepsFirstError(t *testing.T) {
	e := NewEngine()
	later := false
	e.At(units.Time(units.Microsecond), func() {
		e.Fail(errors.New("first failure"))
		e.Fail(errors.New("second failure"))
	})
	e.At(units.Time(2*units.Microsecond), func() { later = true })
	err := e.Run()
	if err == nil || err.Error() != "first failure" {
		t.Fatalf("err = %v, want the first failure", err)
	}
	if e.Err() != err {
		t.Fatalf("Err() = %v, want the run's error", e.Err())
	}
	if later {
		t.Fatal("an event after the failure still ran")
	}
}

func TestShutdownUnwindsProcs(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("never")
	p1 := e.Spawn("w1", func(p *Proc) { p.Wait(s) })
	p2 := e.Spawn("w2", func(p *Proc) { p.Wait(s) })
	if err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	e.Shutdown()
	if !p1.Done() || !p2.Done() {
		t.Fatal("processes not unwound")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	var count int
	for i := 1; i <= 10; i++ {
		i := i
		e.After(units.Duration(i)*units.Microsecond, func() {
			count++
			if i == 3 {
				e.Stop()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	// Resumable after Stop.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		q := e.NewQueue("q")
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("prod%d", i), func(p *Proc) {
				p.Sleep(units.Duration(i%2) * units.Microsecond)
				q.Push(i)
			})
		}
		e.Spawn("cons", func(p *Proc) {
			for i := 0; i < 4; i++ {
				v := q.Pop(p).(int)
				log = append(log, fmt.Sprintf("%v:%d", p.Now(), v))
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("nondeterministic:\n%v\n%v", a, b)
	}
}

// Property: for any batch of (delay, id) pairs, events fire in
// nondecreasing-time order with ties broken by insertion order.
func TestEventHeapProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		type rec struct {
			at  units.Time
			idx int
		}
		var fired []rec
		for i, d := range delays {
			i := i
			at := units.Time(units.Duration(d) * units.Nanosecond)
			e.At(at, func() { fired = append(fired, rec{e.Now(), i}) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(fired) != len(delays) {
			return false
		}
		for k := 1; k < len(fired); k++ {
			if fired[k].at < fired[k-1].at {
				return false
			}
			if fired[k].at == fired[k-1].at && fired[k].idx < fired[k-1].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Server never overlaps service periods and completes work in
// FIFO order regardless of the durations submitted.
func TestServerProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		e := NewEngine()
		s := e.NewServer("srv")
		var ends []units.Time
		e.After(0, func() {
			var prev units.Time
			for _, d := range durs {
				end := s.Serve(units.Duration(d) * units.Nanosecond)
				if end < prev {
					ends = nil
					return
				}
				prev = end
				ends = append(ends, end)
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if len(ends) != len(durs) {
			return len(durs) != 0
		}
		// Total busy time equals the sum of durations (no idling between
		// back-to-back items submitted at t=0).
		var sum units.Duration
		for _, d := range durs {
			sum += units.Duration(d) * units.Nanosecond
		}
		return len(ends) == 0 || ends[len(ends)-1] == units.Time(sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestServePipelined(t *testing.T) {
	e := NewEngine()
	s := e.NewServer("nic")
	var ready []units.Time
	e.After(0, func() {
		// Three items, occupancy 2us, latency 10us: results at 10, 12, 14.
		for i := 0; i < 3; i++ {
			s.ServePipelined(2*units.Microsecond, 10*units.Microsecond, func() {
				ready = append(ready, e.Now())
			})
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []units.Time{
		units.Time(10 * units.Microsecond),
		units.Time(12 * units.Microsecond),
		units.Time(14 * units.Microsecond),
	}
	if len(ready) != 3 {
		t.Fatalf("ready = %v", ready)
	}
	for i := range want {
		if ready[i] != want[i] {
			t.Fatalf("item %d ready at %v, want %v", i, ready[i], want[i])
		}
	}
}

func TestServePipelinedLatencyClamped(t *testing.T) {
	e := NewEngine()
	s := e.NewServer("nic")
	var at units.Time
	e.After(0, func() {
		// Latency below occupancy is clamped to occupancy.
		s.ServePipelined(5*units.Microsecond, 1*units.Microsecond, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != units.Time(5*units.Microsecond) {
		t.Fatalf("ready at %v, want 5us", at)
	}
}

func TestSignalWaiterDedup(t *testing.T) {
	// A process that re-registers on the same signal across spurious wakes
	// must not accumulate waiter entries (the event-storm regression).
	e := NewEngine()
	s := e.NewSignal("slow")
	other := e.NewSignal("fast")
	woken := 0
	e.Spawn("w", func(p *Proc) {
		// WaitAny re-registers on `s` every time `other`-style stale wakes
		// arrive; here we simulate repeated registration directly.
		for i := 0; i < 5; i++ {
			s.addWaiter(p)
		}
		p.WaitAny(s, other)
		woken++
	})
	e.After(units.Microsecond, other.Fire)
	e.After(2*units.Microsecond, s.Fire)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 1 {
		t.Fatalf("woken = %d", woken)
	}
	// The dedup bound: total events stay small.
	if e.Events() > 20 {
		t.Fatalf("event storm: %d events", e.Events())
	}
}
