// Package timetaint exercises the host-clock taint analyzer. Engine
// stands in for the sim engine (After/At are the configured scheduling
// sinks), Result for the artifact payload type.
package timetaint

import (
	"time"

	"timetaint/sink"
	"timetaint/unitsx"
)

type Engine struct{}

func (e *Engine) After(ticks int64, f func()) {}
func (e *Engine) At(tick int64, f func())     {}

type Result struct {
	Events int64
	Wall   time.Duration
	Label  string
}

// Convert reinterprets a host-clock duration as sim-time.
func Convert(t0 time.Time) unitsx.Duration {
	return unitsx.Duration(time.Since(t0)) // want "host-clock value converted to sim-time"
}

// Reverse reinterprets sim-time as a host-clock duration.
func Reverse(d unitsx.Duration) time.Duration {
	return time.Duration(d) // want "sim-time value converted to host-time"
}

// Schedule derives an event time from the wall clock.
func Schedule(e *Engine) {
	e.After(time.Now().UnixNano(), func() {}) // want "flows into sim scheduling call"
}

// ScheduleSim schedules from sim-derived ticks: clean.
func ScheduleSim(e *Engine, d unitsx.Duration) {
	e.After(int64(d), func() {})
}

// Record persists wall time in the comparison payload; the laundering
// through a local does not wash the taint off.
func Record(r *Result, t0 time.Time) {
	elapsed := time.Since(t0)
	r.Wall = elapsed // want "stored in artifact payload field"
	r.Events = 7
	r.Label = "ok"
}

// Report feeds a host-clock-derived value to report output.
func Report(t0 time.Time) {
	sink.Emit(time.Since(t0).Seconds()) // want "flows into report output"
	sink.Emit(3.5)
}

// Pace uses host time for retry pacing without touching any sink: a
// host-time value may exist, it just must not reach the sim.
func Pace(t0 time.Time) bool {
	return time.Since(t0) > 50*time.Millisecond
}

// LaunderLocal launders a host duration through a plain integer local
// before scheduling with it: the local stays tainted.
func LaunderLocal(e *Engine, d time.Duration) {
	n := d.Nanoseconds()
	e.After(n, func() {}) // want "flows into sim scheduling call"
}

// LaunderClosure captures the laundered local in a closure that
// schedules.
func LaunderClosure(e *Engine, d time.Duration) {
	n := d.Nanoseconds()
	schedule := func() {
		e.After(n, func() {}) // want "flows into sim scheduling call"
	}
	schedule()
}

type held struct{ n, m int64 }

// LaunderField launders through one struct field; its sibling field,
// assigned a constant, stays clean.
func LaunderField(e *Engine, d time.Duration) {
	var h held
	h.n = d.Nanoseconds()
	h.m = 5
	e.After(h.n, func() {}) // want "flows into sim scheduling call"
	e.After(h.m, func() {})
}

// LaunderLoop carries the taint around a loop: b reads a before a is
// assigned in source order, so only a fixpoint sees the flow.
func LaunderLoop(e *Engine, d time.Duration) {
	var a, b int64
	for i := 0; i < 2; i++ {
		b = a
		a = d.Nanoseconds()
	}
	e.After(b, func() {}) // want "flows into sim scheduling call"
}

// ScheduleConst converts a constant duration: no clock is read, clean.
func ScheduleConst(e *Engine) {
	e.After(int64(3*time.Second), func() {})
}

// LaunderVar launders through a var declaration.
func LaunderVar(e *Engine, d time.Duration) {
	var n = d.Nanoseconds()
	e.After(n, func() {}) // want "flows into sim scheduling call"
}

// LaunderRange launders through a range clause.
func LaunderRange(e *Engine, d time.Duration) {
	for _, n := range []int64{d.Nanoseconds()} {
		e.After(n, func() {}) // want "flows into sim scheduling call"
	}
}

// LaunderLiteral launders through a struct literal's field; the
// literal's other field stays clean.
func LaunderLiteral(e *Engine, d time.Duration) {
	h := held{n: d.Nanoseconds(), m: 5}
	e.After(h.n, func() {}) // want "flows into sim scheduling call"
	e.After(h.m, func() {})
}

// LaunderSlice launders through a slice element.
func LaunderSlice(e *Engine, d time.Duration) {
	ns := make([]int64, 1)
	ns[0] = d.Nanoseconds()
	e.After(ns[0], func() {}) // want "flows into sim scheduling call"
}
