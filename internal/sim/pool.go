package sim

import "fmt"

// FreeList is a LIFO list of released objects of one pooled type, owned by
// the model object whose operations use them (a fabric, an adapter, a
// rank), so each machine keeps its own and nothing is shared between
// simulations. The zero value is an empty list: a machine that has sent
// nothing has allocated nothing for it.
//
// Each pooled object carries a Live flag and has one release point. Get
// hands out the most recently released object, or nil when none is free;
// the caller then allocates one, binding its continuations once, and marks
// it in use with Live.Acquire.
type FreeList[T any] struct {
	free []*T
}

// Get pops the most recently released object, or returns nil.
func (l *FreeList[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put releases x, whose in-use flag is live, onto the list. Releasing an
// object that is not in use — a second release — panics, naming its type.
func (l *FreeList[T]) Put(x *T, live *Live) {
	if !live.on {
		misuse("released twice", x)
	}
	live.on = false
	l.free = append(l.free, x)
}

// Len reports the number of free objects.
func (l *FreeList[T]) Len() int { return len(l.free) }

// Live is a pooled object's in-use flag: set from Acquire to the object's
// release (FreeList.Put). It guards the object's continuations, which must
// not run once it has been released.
type Live struct {
	on bool
}

// Acquire marks the object in use.
func (l *Live) Acquire() { l.on = true }

// Check panics, naming x's type, if the object whose flag l is has been
// released: x's continuation ran after its one release point.
func (l *Live) Check(x any) {
	if !l.on {
		misuse("continuation ran after release", x)
	}
}

func misuse(what string, x any) {
	panic(fmt.Sprintf("sim: pooled %T %s", x, what))
}
