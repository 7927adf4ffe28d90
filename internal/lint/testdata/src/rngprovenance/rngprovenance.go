// Package rngprovenance exercises the stream-derivation analyzer.
package rngprovenance

import "rngprovenance/rngx"

// Good derives its key from the run seed.
func Good(seed uint64) *rngx.Stream {
	return rngx.New(seed ^ 0x9e3779b97f4a7c15)
}

// ConstKey reseeds identically regardless of the configured seed.
func ConstKey() *rngx.Stream {
	return rngx.New(42) // want "seeded from constants only"
}

// Colliding derives the same key twice: both streams emit one sequence.
func Colliding(seed uint64) (*rngx.Stream, *rngx.Stream) {
	a := rngx.New(seed >> 1)
	b := rngx.New(seed >> 1) // want "derives the same key as the derivation at line"
	return a, b
}

// Distinct derivations from one seed are sound.
func Distinct(seed uint64) (*rngx.Stream, *rngx.Stream) {
	a := rngx.New(seed ^ 1)
	b := rngx.New(seed ^ 2)
	return a, b
}

// Invariant hands every iteration the same stream.
func Invariant(seed uint64, n int) {
	for i := 0; i < n; i++ {
		_ = rngx.New(seed) // want "does not vary across loop iterations"
	}
}

// Variant mixes the iteration index into the key: clean.
func Variant(seed uint64, n int) {
	for i := 0; i < n; i++ {
		_ = rngx.New(seed + uint64(i)<<32)
	}
}

// FromTable draws per-element keys out of a table: clean.
func FromTable(seeds []uint64) {
	for i := range seeds {
		_ = rngx.New(seeds[i])
	}
}

// Stepped advances a key declared outside the loop: clean.
func Stepped(seed uint64, n int) {
	k := seed
	for range n {
		k++
		_ = rngx.New(k)
	}
}

// Declared builds the key in a var declaration inside the loop: clean.
func Declared(seed uint64, n int) {
	for i := 0; i < n; i++ {
		var k = seed + uint64(i)
		_ = rngx.New(k)
	}
}

// Drawn takes each key from a receive or a call: clean.
func Drawn(seeds chan uint64, next func() uint64, n int) {
	for i := 0; i < n; i++ {
		_ = rngx.New(<-seeds)
		_ = rngx.New(next())
	}
}
