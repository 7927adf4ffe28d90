package main

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ib"
	"repro/internal/runner"
)

// TestJudge pins the exit policy: which experiment outcomes fail a run,
// which -faults tolerates, and the status each verdict exits with.
func TestJudge(t *testing.T) {
	const plan = "storm:2026"
	kill := fmt.Errorf("ib: QP error on node 0 (rdma-write to peer 1): %w after 7 retransmissions", ib.ErrRetryExhausted)
	timeout := &runner.TimeoutError{JobID: "fig1a/IB/4KiB", Limit: time.Millisecond, Err: context.DeadlineExceeded}
	panicked := &runner.PanicError{JobID: "fig1a/IB/4KiB", Value: "boom"}
	plain := errors.New("experiments: fig8: fit failed")
	canceled := fmt.Errorf("experiments: fig5: %w", context.Canceled)
	point := func(err error) runner.Failure { return runner.Failure{Job: "p", Cause: err.Error(), Err: err} }

	for _, c := range []struct {
		name    string
		faults  string
		err     error
		fails   []runner.Failure
		stopped error
		want    verdict
		exit    int
	}{
		{name: "clean", want: verdictOK, exit: 0},
		{name: "clean under -faults", faults: plan, want: verdictOK, exit: 0},
		{name: "fault kill under -faults", faults: plan, err: kill, want: verdictTolerated, exit: 0},
		{name: "fault kill without -faults", err: kill, want: verdictFailed, exit: 1},
		{name: "timeout", faults: plan, err: timeout, want: verdictFailed, exit: 1},
		{name: "panic", faults: plan, err: panicked, want: verdictFailed, exit: 1},
		{name: "plain error", err: plain, want: verdictFailed, exit: 1},
		{name: "point kills under -faults", faults: plan,
			fails: []runner.Failure{point(kill), point(kill)}, want: verdictTolerated, exit: 0},
		{name: "point kills without -faults",
			fails: []runner.Failure{point(kill)}, want: verdictFailed, exit: 1},
		{name: "point kill and timeout under -faults", faults: plan,
			fails: []runner.Failure{point(kill), point(timeout)}, want: verdictFailed, exit: 1},
		{name: "interrupted", err: canceled, stopped: context.Canceled, want: verdictInterrupted, exit: 130},
		{name: "canceled without an interrupt", err: canceled, want: verdictFailed, exit: 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			v := judge(c.faults, c.err, c.fails, c.stopped)
			if v != c.want {
				t.Errorf("verdict %d, want %d", v, c.want)
			}
			if got := v.exitStatus(); got != c.exit {
				t.Errorf("exit status %d, want %d", got, c.exit)
			}
		})
	}
}

// TestWorstVerdictExits: a run exits with its worst verdict's status, so
// a failure outranks an interrupt and a tolerated kill outranks nothing.
func TestWorstVerdictExits(t *testing.T) {
	for _, c := range []struct {
		vs   []verdict
		exit int
	}{
		{[]verdict{verdictOK, verdictTolerated}, 0},
		{[]verdict{verdictTolerated, verdictInterrupted}, 130},
		{[]verdict{verdictInterrupted, verdictFailed, verdictOK}, 1},
	} {
		worst := verdictOK
		for _, v := range c.vs {
			worst = max(worst, v)
		}
		if got := worst.exitStatus(); got != c.exit {
			t.Errorf("%v: exit status %d, want %d", c.vs, got, c.exit)
		}
	}
}
