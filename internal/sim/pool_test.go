package sim

import (
	"strings"
	"testing"
)

type pooledThing struct {
	live Live
	n    int
}

// mustPanic runs fn and returns its panic message, failing if it does not
// panic.
func mustPanic(t *testing.T, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("no panic")
			}
			msg, _ = r.(string)
		}()
		fn()
	}()
	return msg
}

// TestFreeListLIFO: Get hands out the most recently released object, and
// nil once the list is empty.
func TestFreeListLIFO(t *testing.T) {
	var l FreeList[pooledThing]
	if l.Get() != nil {
		t.Fatal("empty list handed out an object")
	}
	a, b := &pooledThing{n: 1}, &pooledThing{n: 2}
	a.live.Acquire()
	b.live.Acquire()
	l.Put(a, &a.live)
	l.Put(b, &b.live)
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if got := l.Get(); got != b {
		t.Fatalf("Get = %v, want the last released", got)
	}
	if got := l.Get(); got != a {
		t.Fatalf("Get = %v, want the first released", got)
	}
	if l.Get() != nil || l.Len() != 0 {
		t.Fatal("list not empty")
	}
}

// TestFreeListMisuse: releasing an object twice, or running its
// continuation after its release, panics and names its type.
func TestFreeListMisuse(t *testing.T) {
	var l FreeList[pooledThing]
	x := &pooledThing{}
	x.live.Acquire()
	x.live.Check(x) // in use: no panic
	l.Put(x, &x.live)
	msg := mustPanic(t, func() { l.Put(x, &x.live) })
	if !strings.Contains(msg, "*sim.pooledThing released twice") {
		t.Errorf("double release: %q", msg)
	}
	if l.Len() != 1 {
		t.Errorf("double release left %d objects on the list, want 1", l.Len())
	}
	msg = mustPanic(t, func() { x.live.Check(x) })
	if !strings.Contains(msg, "*sim.pooledThing continuation ran after release") {
		t.Errorf("continuation after release: %q", msg)
	}
}
