package fabric

// SetCoalescing turns the idle-path fast path on or off, so that tests
// outside the package can run a machine on the chunk model.
func (f *Fabric) SetCoalescing(on bool) { f.coalesce = on }
