package tports

import "unsafe"

// OpSize is the size of the per-operation state the transport pools.
const OpSize = unsafe.Sizeof(op{})

// FreeOps reports how many recycled ops the transport holds.
func (t *Transport) FreeOps() int { return t.freeOps.Len() }
