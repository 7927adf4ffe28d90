package sim

// KeyDigest returns e's running hash of every (at, seq) it has
// dispatched, in dispatch order.
func KeyDigest(e *Engine) uint64 { return e.keys }
