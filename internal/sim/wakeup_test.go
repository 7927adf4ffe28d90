package sim

// Tests for Wakeup's count protocol: a waiter captures Count, checks its
// condition, then waits with what it captured, so a fire in between is
// never lost, and a fire re-arms the wake-up in place for the next round.

import (
	"errors"
	"strings"
	"testing"
)

// TestWakeupFireBeforeWaitReturns: the wake-up fires while the waiter is
// between capturing the count and waiting (here, asleep), so the wait
// returns at once, parking on nothing and dispatching no event.
func TestWakeupFireBeforeWaitReturns(t *testing.T) {
	e := NewEngine()
	var w Wakeup
	e.InitWakeup(&w, "w")
	e.At(3, w.Fire)
	var returned Time = -1
	e.Spawn("waiter", func(p *Proc) {
		seen := w.Count()
		p.Sleep(5)
		before := e.Events()
		p.WaitWakeup(&w, seen)
		if e.Events() != before {
			t.Errorf("the wait dispatched %d events, want 0", e.Events()-before)
		}
		returned = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if returned != 5 {
		t.Fatalf("wait returned at %v, want 5", returned)
	}
}

// TestWakeupFireWakesParkedWaiter: a fire while the waiter is parked wakes
// it, and a second round on the re-armed wake-up works the same way.
func TestWakeupFireWakesParkedWaiter(t *testing.T) {
	e := NewEngine()
	var w Wakeup
	e.InitWakeup(&w, "w")
	e.At(4, w.Fire)
	e.At(9, w.Fire)
	var returned []Time
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.WaitWakeup(&w, w.Count())
			returned = append(returned, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(returned) != 2 || returned[0] != 4 || returned[1] != 9 {
		t.Fatalf("waits returned at %v, want [4 9]", returned)
	}
	if w.Count() != 2 {
		t.Fatalf("count %d, want 2", w.Count())
	}
}

// TestWakeupSpuriousWakeReparks: a wake the waiter did not ask for (a
// stale registration elsewhere) re-parks it inside the wait, which
// returns only at the fire.
func TestWakeupSpuriousWakeReparks(t *testing.T) {
	e := NewEngine()
	var w Wakeup
	e.InitWakeup(&w, "w")
	other := e.NewSignal("other")
	var returned Time = -1
	waiter := e.Spawn("waiter", func(p *Proc) {
		p.WaitWakeup(&w, w.Count(), other)
		returned = p.Now()
	})
	e.At(2, waiter.wake)
	e.At(6, w.Fire)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if returned != 6 {
		t.Fatalf("wait returned at %v, want 6", returned)
	}
}

// TestWakeupStaleRegistrationWakesOnce: a waiter that leaves its wait
// through another signal stays registered on the wake-up, as it would on a
// one-shot signal; the next fire wakes it once, and the fire after that
// wakes nothing.
func TestWakeupStaleRegistrationWakesOnce(t *testing.T) {
	e := NewEngine()
	var w Wakeup
	e.InitWakeup(&w, "w")
	other := e.NewSignal("other")
	e.At(1, other.Fire)
	var wakes [2]uint64
	e.At(3, func() {
		before := e.nWakes
		w.Fire()
		wakes[0] = e.nWakes - before
	})
	e.At(5, func() {
		before := e.nWakes
		w.Fire()
		wakes[1] = e.nWakes - before
	})
	e.Spawn("waiter", func(p *Proc) {
		p.WaitWakeup(&w, w.Count(), other)
		p.Sleep(10)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != [2]uint64{1, 0} {
		t.Fatalf("fires woke %v processes, want [1 0]", wakes)
	}
}

// TestWakeupFireWithoutListenersDispatchesNothing: a fire nobody waits on
// advances the count and schedules no event.
func TestWakeupFireWithoutListenersDispatchesNothing(t *testing.T) {
	e := NewEngine()
	var w Wakeup
	e.InitWakeup(&w, "w")
	e.At(1, func() {
		w.Fire()
		w.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Events() != 1 || w.Count() != 2 {
		t.Fatalf("%d events and count %d, want 1 event and count 2", e.Events(), w.Count())
	}
}

// TestWakeupDeadlockNames: a deadlocked wait names the wake-up when it is
// the only thing waited on, and the first other signal when there are
// others, as Wait and WaitAny name theirs.
func TestWakeupDeadlockNames(t *testing.T) {
	e := NewEngine()
	var w Wakeup
	e.InitWakeup(&w, "rank%d incoming", 1)
	req := e.NewSignal("ib recv %d<-%d", 0, 1)
	e.Spawn("alone", func(p *Proc) { p.WaitWakeup(&w, w.Count()) })
	e.Spawn("any", func(p *Proc) { p.WaitWakeup(&w, w.Count(), req) })
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want a deadlock", err)
	}
	for _, want := range []string{"alone (waiting on signal rank1 incoming)", "any (waiting on any of ib recv 0<-1)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("report %q does not contain %q", err, want)
		}
	}
	e.Shutdown()
}

// TestWakeupRoundsKeepRegistrationOrder: each fire wakes that round's
// registered processes in registration order, overflow included, and the
// next round starts empty: a process registered only in an earlier round
// is not woken again.
func TestWakeupRoundsKeepRegistrationOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	waiter := func(name string) *Proc {
		return &Proc{eng: e, name: name, switchFn: func() { order = append(order, name) }}
	}
	var w Wakeup
	e.InitWakeup(&w, "w")
	w1, w2, w3 := waiter("w1"), waiter("w2"), waiter("w3")
	e.At(1, func() {
		for _, p := range []*Proc{w1, w2, w3, w2} {
			w.sig.addWaiter(p)
		}
		w.Fire()
	})
	e.At(2, func() {
		order = append(order, "|")
		for _, p := range []*Proc{w3, w1} {
			w.sig.addWaiter(p)
		}
		w.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "w1 w2 w3 | w3 w1"; got != want {
		t.Fatalf("wake order %q, want %q", got, want)
	}
}
