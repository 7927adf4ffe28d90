// Package globalstate seeds mutable package-level state in each write
// form, plus the legal read-only/init-only patterns.
package globalstate

import (
	"bytes"
	"errors"
	"sync"
	"time"
)

var counter int // want `package-level var counter is mutated outside init`

func bump() { counter++ }

var store = map[string]int{} // want `package-level var store is assigned outside init`

func put(k string) { store[k] = 1 }

var leaked int // want `package-level var leaked is address-taken outside init`

func leak() *int { return &leaked }

var reassigned []string // want `package-level var reassigned is assigned outside init`

func grow(s string) { reassigned = append(reassigned, s) }

// A pointer-receiver method call takes the var's address implicitly.
var pool sync.Pool // want `package-level var pool is address-taken outside init`

func recycle(x any) { pool.Put(x) }

var logBuf bytes.Buffer // want `package-level var logBuf is address-taken outside init`

func logf(s string) { logBuf.WriteString(s) }

var settings struct{ free sync.Pool } // want `package-level var settings is address-taken outside init`

func recycleField(x any) { settings.free.Put(x) }

// A value-receiver method call only reads the var.
var period = 3 * time.Second

func describe() string { return period.String() }

// Read-only tables, error sentinels, and init-only writes are legal.
var table = []string{"a", "b"}

var ErrSeeded = errors.New("globalstate: seeded")

var seeded int

func init() { seeded = 42 }

//simlint:allow globalstate — test fixture
var sanctioned int

func setSanctioned() { sanctioned = 1 }

func readOnly() (int, string, error) {
	return seeded, table[0], ErrSeeded
}
