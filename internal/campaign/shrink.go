package campaign

// Greedy scenario minimization. Given a violating scenario and the
// contract it breaks, shrink repeatedly tries order-fixed simplifying
// transformations — drop the fault plan, halve the machine, drop fault
// events one at a time, halve windows and sizes — and accepts a candidate
// iff the full contract check still reports a violation of the same
// contract. Every accepted step re-runs the determinism legs, so a shrunk
// reproducer is as replayable as the original. The search is bounded by
// ShrinkBudget check() evaluations and is deterministic: candidates are
// generated in a fixed order from the current scenario only.

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/units"
)

// DefaultShrinkBudget bounds the number of candidate evaluations (each one
// a full contract check) spent minimizing one violation.
const DefaultShrinkBudget = 48

type candidate struct {
	desc string
	sc   Scenario
}

// shrink minimizes sc while preserving a violation of the given contract.
// It returns the minimized scenario and the lineage of accepted steps
// (empty when nothing could be removed).
func shrink(sc Scenario, contract string, cfg *Config) (Scenario, []string) {
	budget := cfg.ShrinkBudget
	if budget == 0 {
		budget = DefaultShrinkBudget
	}
	cur := sc
	var lineage []string
	for improved := true; improved && budget > 0; {
		improved = false
		for _, c := range candidates(cur) {
			if budget == 0 {
				break
			}
			budget--
			vs, _, err := check(c.sc, cfg)
			if err != nil {
				continue
			}
			if hasContract(vs, contract) {
				cur = c.sc
				lineage = append(lineage, c.desc)
				improved = true
				break // regenerate candidates from the smaller scenario
			}
		}
	}
	return cur, lineage
}

func hasContract(vs []Violation, contract string) bool {
	for i := range vs {
		if vs[i].Contract == contract {
			return true
		}
	}
	return false
}

// candidates generates the simplifying transformations applicable to sc,
// most aggressive first. Every candidate strictly reduces some bounded
// quantity (fault events, window span, ranks, ppn, size, iters, eager
// override), so acceptance cannot loop.
func candidates(sc Scenario) []candidate {
	var out []candidate
	if sc.Faults != "" {
		next := sc
		next.Faults = ""
		out = append(out, candidate{"drop declared fault plan", next})
	}
	if sc.Ranks >= 4 {
		if next, ok := reshape(sc, sc.Ranks/2, sc.PPN); ok {
			out = append(out, candidate{fmt.Sprintf("ranks %d->%d", sc.Ranks, next.Ranks), next})
		}
	}
	if sc.PPN > 1 {
		if next, ok := reshape(sc, sc.Ranks, 1); ok {
			out = append(out, candidate{fmt.Sprintf("ppn %d->1", sc.PPN), next})
		}
	}
	if sc.Size > 0 {
		next := sc
		next.Size = sc.Size / 2
		out = append(out, candidate{fmt.Sprintf("size %d->%d", sc.Size, next.Size), next})
	}
	if sc.Iters > 1 {
		next := sc
		next.Iters = sc.Iters / 2
		out = append(out, candidate{fmt.Sprintf("iters %d->%d", sc.Iters, next.Iters), next})
	}
	if sc.EagerKiB != 0 {
		next := sc
		next.EagerKiB = 0
		out = append(out, candidate{"default eager threshold", next})
	}
	out = append(out, faultCandidates(sc)...)
	return out
}

// faultCandidates proposes per-event reductions of the declared plan:
// drop event i; halve event i's window.
func faultCandidates(sc Scenario) []candidate {
	if sc.Faults == "" {
		return nil
	}
	clos, err := sc.Clos()
	if err != nil {
		return nil
	}
	p, err := fault.Compile(sc.Faults, clos)
	if err != nil {
		return nil
	}
	var out []candidate
	for i := range p.Events {
		q := p.Clone()
		q.Events = append(q.Events[:i:i], q.Events[i+1:]...)
		next := sc
		if len(q.Events) == 0 {
			next.Faults = ""
		} else {
			next.Faults = q.Spec()
		}
		out = append(out, candidate{fmt.Sprintf("drop fault event %d", i), next})
	}
	for i := range p.Events {
		if p.Events[i].For < 2*units.Microsecond {
			continue
		}
		q := p.Clone()
		q.Events[i].For /= 2
		next := sc
		next.Faults = q.Spec()
		out = append(out, candidate{fmt.Sprintf("halve window of fault event %d", i), next})
	}
	return out
}

// reshape builds a scenario with a new (ranks, ppn), remapping the
// declared fault plan's edge-link events onto the new topology's link
// numbering and dropping events whose target no longer exists (spine links
// and out-of-range nodes). Returns ok=false when the reshaped scenario
// cannot be built.
func reshape(sc Scenario, ranks, ppn int) (Scenario, bool) {
	if ranks < 2 || ppn < 1 {
		return sc, false
	}
	next := sc
	next.Ranks, next.PPN = ranks, ppn
	if sc.Faults == "" {
		return next, true
	}
	oldClos, err := sc.Clos()
	if err != nil {
		return sc, false
	}
	p, err := fault.Compile(sc.Faults, oldClos)
	if err != nil {
		return sc, false
	}
	newClos, err := next.Clos()
	if err != nil {
		return sc, false
	}
	var ev []fault.Event
	for _, e := range p.Events {
		l := int(e.Link)
		switch {
		case l < oldClos.Nodes: // injection link of node l
			if l < newClos.Nodes {
				e.Link = newClos.Injection(l)
				ev = append(ev, e)
			}
		case l < 2*oldClos.Nodes: // ejection link
			if n := l - oldClos.Nodes; n < newClos.Nodes {
				e.Link = newClos.Ejection(n)
				ev = append(ev, e)
			}
		}
		// Spine links don't survive a reshape; dropping them is itself a
		// shrink (acceptance still requires the violation to persist).
	}
	if len(ev) == 0 {
		next.Faults = ""
	} else {
		q := &fault.Plan{Seed: p.Seed, Events: ev}
		next.Faults = q.Spec()
	}
	return next, true
}
