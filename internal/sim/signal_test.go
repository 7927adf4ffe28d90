package sim

// Tests for Signal's layout and for the order in which Fire dispatches its
// waiters and callbacks once they overflow the inline slots.

import (
	"strings"
	"testing"
	"unsafe"
)

// TestSignalFits64Bytes keeps Signal in the 64-byte allocation class, so a
// signal embedded in its owner adds at most 64 bytes to it.
func TestSignalFits64Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Signal{}); size > 64 {
		t.Fatalf("Signal is %d bytes, want at most 64", size)
	}
}

// TestSignalNameOnRead: a signal keeps its name's parts and renders them
// only when read, so initializing one allocates nothing, and each form
// renders as the name it stands for.
func TestSignalNameOnRead(t *testing.T) {
	e := NewEngine()
	for _, c := range []struct {
		format string
		nums   []int
		want   string
	}{
		{"ib send %d->%d", []int{0, 1}, "ib send 0->1"},
		{"ib recv %d<-%d", []int{0, 1}, "ib recv 0<-1"},
		{"ib recv %d<-%d", []int{2, -1}, "ib recv 2<--1"},
		{"rank%d incoming", []int{3}, "rank3 incoming"},
		{"node%d membership", []int{0}, "node0 membership"},
		{"elan rx rank%d", []int{3}, "elan rx rank3"},
		{"compute timer", nil, "compute timer"},
	} {
		var s Signal
		if allocs := testing.AllocsPerRun(100, func() { e.InitSignal(&s, c.format, c.nums...) }); allocs != 0 {
			t.Errorf("%q: initializing made %v allocations, want 0", c.want, allocs)
		}
		if got := s.Name(); got != c.want {
			t.Errorf("name %q, want %q", got, c.want)
		}
		var w Wakeup
		e.InitWakeup(&w, c.format, c.nums...)
		if got := w.sig.Name(); got != c.want {
			t.Errorf("wake-up name %q, want %q", got, c.want)
		}
	}
}

// TestSignalDispatchOrder registers three distinct waiters, two of them
// twice, and three callbacks on a signal embedded by value in its owner,
// then fires it. Wakes run first and callbacks second, each in
// registration order, a duplicate waiter is woken once, and a callback
// registered after the fire runs after all of them.
func TestSignalDispatchOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	waiter := func(name string) *Proc {
		return &Proc{eng: e, name: name, switchFn: func() { order = append(order, name) }}
	}
	callback := func(name string) func() {
		return func() { order = append(order, name) }
	}
	owner := struct {
		id   int
		done Signal
	}{id: 7}
	e.InitSignal(&owner.done, "owned")
	s := &owner.done

	w1, w2, w3 := waiter("w1"), waiter("w2"), waiter("w3")
	s.addWaiter(w1)
	s.OnFire(callback("c1"))
	s.addWaiter(w2)
	s.OnFire(callback("c2"))
	s.addWaiter(w3)
	s.addWaiter(w2) // re-registrations after stale wakes
	s.addWaiter(w1)
	s.OnFire(callback("c3"))
	e.After(5, func() {
		s.Fire()
		s.OnFire(callback("c4"))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "w1 w2 w3 c1 c2 c3 c4"; got != want {
		t.Fatalf("dispatch order %q, want %q", got, want)
	}
	if !s.Fired() || s.FiredAt() != 5 || owner.id != 7 {
		t.Fatalf("fired=%v at %v, owner id %d", s.Fired(), s.FiredAt(), owner.id)
	}
}
