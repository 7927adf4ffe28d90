package main

import (
	"errors"
	"slices"

	"repro/internal/platform"
	"repro/internal/runner"
)

// verdict is how the summary reads one experiment. Verdicts are ordered by
// severity: a run exits with the status of its worst one.
type verdict int

const (
	verdictOK verdict = iota
	// verdictTolerated: the fault plan killed the experiment or some of its
	// points (IB retry-budget exhaustion), and nothing else failed.
	verdictTolerated
	// verdictInterrupted: SIGINT/SIGTERM cut the experiment short.
	verdictInterrupted
	verdictFailed
)

// exitStatus is the status of a run whose worst verdict is v. Interrupted
// experiments are not failures, but an interrupted run is not a clean one.
func (v verdict) exitStatus() int {
	switch v {
	case verdictFailed:
		return 1
	case verdictInterrupted:
		return 130
	}
	return 0
}

// judge reads one experiment from faults (the -faults spec), its error,
// its failed points and stopped, the interrupt's context error (nil when
// the run was not interrupted). A failed point fails the experiment,
// though its tables keep the point as "failed". Under -faults a death by
// the plan, of the experiment or of a point, is a modelled, deterministic
// outcome and is tolerated, so the exit status stays meaningful for every
// other kind of failure.
func judge(faults string, err error, fails []runner.Failure, stopped error) verdict {
	killed := func(err error) bool { return platform.KilledByPlan(faults, err) }
	switch {
	case err != nil && stopped != nil && errors.Is(err, stopped):
		return verdictInterrupted
	case err != nil && killed(err):
		return verdictTolerated
	case err != nil:
		return verdictFailed
	case slices.ContainsFunc(fails, func(f runner.Failure) bool { return !killed(f.Err) }):
		return verdictFailed
	case len(fails) > 0:
		return verdictTolerated
	}
	return verdictOK
}
