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
