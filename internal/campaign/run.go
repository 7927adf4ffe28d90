package campaign

// The scenario executor: builds the machine a scenario describes, installs
// the invariant probes (fabric loss/retirement, IB RC delivery, Elan
// sequencer order), runs the workload under an event budget, and reduces
// the run to a deterministic digest plus probe observations. check() then
// runs the variant legs a scenario needs — twice for determinism and a
// clean baseline for monotonicity — and evaluates every applicable
// behavioral contract.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/elan"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/mpi"
	"repro/internal/mpi/mvib"
	"repro/internal/platform"
	"repro/internal/topology"
	"repro/internal/units"
)

// DefaultEventBudget bounds one scenario run. Generated scenarios dispatch
// well under a million events; a run that needs 50M has lost progress
// (an undrained stall loop, a livelocked retry storm) — exactly what BC-1
// exists to catch.
const DefaultEventBudget = 50_000_000

// observation is what the probes saw during one run. Violating
// observations are capped (the first violationCap per category) so a
// pathological scenario cannot hold the whole loss history in memory.
type observation struct {
	containViol []string // BC-5: losses/stalls outside declared windows
	orderViol   []string // BC-6: sequencer released out of order
	onceViol    []string // BC-7: an RC request delivered twice

	delivered, dropped           uint64
	deliveredBytes, droppedBytes units.Bytes
}

const violationCap = 8

// runOut is the outcome of one leg.
type runOut struct {
	runErr  error
	elapsed units.Duration
	digest  string
	obs     *observation
	msgs    uint64
	bytes   units.Bytes
}

// faultKilled reports whether the run error is IB retry-budget exhaustion
// — the one modeled, acceptable way a faulty run ends early (paper §3:
// the QP enters the error state).
func faultKilled(err error) bool {
	return err != nil && strings.Contains(err.Error(), "retry budget exhausted")
}

// buildOpts translates a scenario into platform options.
func buildOpts(sc *Scenario, faults string) platform.Options {
	opts := platform.Options{
		Network:   sc.Net(),
		Ranks:     sc.Ranks,
		PPN:       sc.PPN,
		Radix:     sc.Radix,
		FaultSpec: faults,
		Label:     sc.Name,
	}
	if sc.EagerKiB > 0 {
		thr := units.Bytes(sc.EagerKiB) * units.KiB
		opts.TuneIB = func(_ *ib.Params, tp *mvib.Params) {
			tp.EagerThreshold = thr
			if tp.RDMAEagerMax > thr {
				tp.RDMAEagerMax = thr
			}
		}
		opts.TuneElan = func(ep *elan.Params) { ep.EagerThreshold = thr }
	}
	return opts
}

// appFor builds the scenario's workload closure.
func appFor(sc *Scenario) func(*mpi.Rank) {
	size, iters, n := sc.Size, sc.Iters, sc.Ranks
	last := n - 1
	switch sc.Workload {
	case "stream":
		const window = 4
		return func(r *mpi.Rank) {
			switch r.ID() {
			case 0:
				for it := 0; it < iters; it++ {
					reqs := make([]*mpi.Request, window)
					for k := range reqs {
						reqs[k] = r.Isend(last, it, size)
					}
					r.Waitall(reqs...)
					r.Recv(last, 1000+it)
				}
			case last:
				for it := 0; it < iters; it++ {
					reqs := make([]*mpi.Request, window)
					for k := range reqs {
						reqs[k] = r.Irecv(0, it)
					}
					r.Waitall(reqs...)
					r.Send(0, 1000+it, 0)
				}
			}
		}
	case "ring":
		return func(r *mpi.Rank) {
			me := r.ID()
			next, prev := (me+1)%n, (me+n-1)%n
			for it := 0; it < iters; it++ {
				req := r.Isend(next, it, size)
				r.Recv(prev, it)
				r.Waitall(req)
			}
		}
	default: // pingpong
		return func(r *mpi.Rank) {
			switch r.ID() {
			case 0:
				for it := 0; it < iters; it++ {
					r.Send(last, it, size)
					r.Recv(last, it)
				}
			case last:
				for it := 0; it < iters; it++ {
					r.Recv(0, it)
					r.Send(0, it, size)
				}
			}
		}
	}
}

// runProbed executes one probed leg. declared is the compiled
// declared fault plan (nil for a clean scenario) that containment is
// checked against — smuggled faults (the canary knob) are installed on
// the machine but absent from declared, which is the point.
func runProbed(sc *Scenario, effFaults string, declared *fault.Plan, budget uint64) runOut {
	m, err := platform.New(buildOpts(sc, effFaults))
	if err != nil {
		return runOut{runErr: err, digest: digestErr(err)}
	}
	obs := &observation{}
	m.Fab.SetProbe(&fabric.Probe{
		ChunkLost: func(link topology.LinkID, at units.Time) {
			if declared == nil || !declared.AllowsLossAt(link, at) {
				if len(obs.containViol) < violationCap {
					obs.containViol = append(obs.containViol, fmt.Sprintf(
						"chunk lost on link %d at %dps outside any declared loss/down window", link, int64(at)))
				}
			}
		},
		ChunkStalled: func(link topology.LinkID, at units.Time) {
			if declared == nil || !declared.AllowsStallAt(link, at) {
				if len(obs.containViol) < violationCap {
					obs.containViol = append(obs.containViol, fmt.Sprintf(
						"chunk stalled on link %d at %dps outside any declared down window", link, int64(at)))
				}
			}
		},
		MessageDelivered: func(size units.Bytes, _ units.Time) {
			obs.delivered++
			obs.deliveredBytes += size
		},
		MessageDropped: func(size units.Bytes, _ units.Time) {
			obs.dropped++
			obs.droppedBytes += size
		},
	})
	if m.IB != nil {
		seen := make(map[ib.ReqID]int)
		m.IB.Network().SetDeliveryProbe(&ib.DeliveryProbe{
			Delivered: func(req ib.ReqID, attempt int, _ units.Time) {
				seen[req]++
				if seen[req] == 2 && len(obs.onceViol) < violationCap {
					obs.onceViol = append(obs.onceViol, fmt.Sprintf(
						"RC request %s #%d (%d->%d) delivered twice (second on attempt %d)",
						req.Kind, req.Seq, req.Node, req.Peer, attempt))
				}
			},
		})
	}
	if m.Elan != nil {
		next := make(map[[2]int]uint64)
		m.Elan.Network().SetOrderProbe(func(src, dst int, seq uint64) {
			k := [2]int{src, dst}
			if seq != next[k] && len(obs.orderViol) < violationCap {
				obs.orderViol = append(obs.orderViol, fmt.Sprintf(
					"flow %d->%d released seq %d to matching, want %d", src, dst, seq, next[k]))
			}
			next[k] = seq + 1
		})
	}
	m.Eng.SetEventLimit(budget)

	res, err := m.Run(appFor(sc))
	out := runOut{runErr: err, obs: obs}
	out.msgs, out.bytes = m.Fab.Stats()
	if err != nil {
		out.digest = digestErr(err)
		return out
	}
	out.elapsed = res.Elapsed
	out.digest = digestRun(res, m)
	return out
}

// digestRun reduces a completed run to a canonical digest over its
// observables: completion times, fabric accounting, fault
// recovery counters. Event counts stay out (coalescing on/off changes
// them without changing behaviour); wall-clock never appears anywhere.
func digestRun(res *mpi.Result, m *platform.Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%d&ranks=", int64(res.Elapsed))
	for i, d := range res.RankElapsed {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", int64(d))
	}
	msgs, bytes := m.Fab.Stats()
	fs := m.Fab.FaultStats()
	fmt.Fprintf(&b, "&msgs=%d&bytes=%d&lost=%d&retried=%d&rerouted=%d&mdropped=%d",
		msgs, bytes, fs.ChunksLost, fs.ChunksRetried, fs.ChunksRerouted, fs.MessagesDropped)
	if m.IB != nil {
		var retrans, timeouts uint64
		for i := 0; i < m.Fab.Nodes(); i++ {
			h := m.IB.Network().HCA(i)
			retrans += h.Retransmits
			timeouts += h.Timeouts
		}
		fmt.Fprintf(&b, "&retrans=%d&timeouts=%d", retrans, timeouts)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// digestErr is the digest of a failed run: the error text, which the
// engine keeps deterministic (QP identity and retry count, event counts
// and simulated times — never wall-clock or addresses).
func digestErr(err error) string {
	sum := sha256.Sum256([]byte("err=" + err.Error()))
	return hex.EncodeToString(sum[:])
}

// check runs every applicable contract against one scenario and returns
// the violations, in contract-ID order. The error return is
// infrastructural (an unbuildable scenario), not a contract violation.
func check(sc Scenario, cfg *Config) ([]Violation, string, error) {
	effFaults := joinSpecs(sc.Faults, cfg.Smuggle)
	budget := cfg.EventBudget
	if budget == 0 {
		budget = DefaultEventBudget
	}

	clos, err := sc.Clos()
	if err != nil {
		return nil, "", fmt.Errorf("campaign: scenario %s: %w", sc.Name, err)
	}
	var declared *fault.Plan
	if sc.Faults != "" {
		declared, err = fault.Compile(sc.Faults, clos)
		if err != nil {
			return nil, "", fmt.Errorf("campaign: scenario %s: %w", sc.Name, err)
		}
	}

	a := runProbed(&sc, effFaults, declared, budget)
	b := runProbed(&sc, effFaults, declared, budget)

	var v []Violation
	// BC-1 progress: only fault-kill (IB retry exhaustion under a fault
	// plan) is an acceptable early end — and only when faults exist to
	// cause it.
	if a.runErr != nil && !(faultKilled(a.runErr) && effFaults != "") {
		v = append(v, violation("BC-1", sc, fmt.Sprintf("run failed: %v", a.runErr)))
	}
	// BC-2 monotone degradation, for scenarios with declared faults that
	// completed. Elan's adaptive route-around may legitimately reshuffle
	// contention, so the Elan check is scoped to plans that cannot touch
	// spine choice: edge-only faults on a single-flow workload or a
	// spineless topology.
	if declared != nil && a.runErr == nil {
		applies := sc.Net() == platform.InfiniBand4X ||
			(declared.EdgeOnly(clos) && (clos.Levels == 1 || sc.Workload == "pingpong"))
		if applies {
			base := sc
			base.Faults = ""
			clean := runProbed(&base, cfg.Smuggle, nil, budget)
			if clean.runErr == nil && a.elapsed < clean.elapsed {
				v = append(v, violation("BC-2", sc, fmt.Sprintf(
					"faulty run finished at %dps, before its clean baseline at %dps",
					int64(a.elapsed), int64(clean.elapsed))))
			}
		}
	}
	// BC-3/BC-4 conservation, meaningful only when the run drained fully.
	if a.runErr == nil {
		if a.obs.delivered+a.obs.dropped != a.msgs {
			v = append(v, violation("BC-3", sc, fmt.Sprintf(
				"messages not conserved: %d delivered + %d dropped != %d initiated",
				a.obs.delivered, a.obs.dropped, a.msgs)))
		}
		if a.obs.deliveredBytes+a.obs.droppedBytes != a.bytes {
			v = append(v, violation("BC-4", sc, fmt.Sprintf(
				"bytes not conserved: %d delivered + %d dropped != %d sent",
				a.obs.deliveredBytes, a.obs.droppedBytes, a.bytes)))
		}
	}
	// BC-5 containment: valid even on a fault-killed run — every loss the
	// probe saw was checked against the declared plan at its instant.
	if len(a.obs.containViol) > 0 {
		v = append(v, violation("BC-5", sc, strings.Join(a.obs.containViol, "; ")))
	}
	// BC-6 / BC-7 transport ordering contracts, likewise valid on partial
	// runs.
	if len(a.obs.orderViol) > 0 {
		v = append(v, violation("BC-6", sc, strings.Join(a.obs.orderViol, "; ")))
	}
	if len(a.obs.onceViol) > 0 {
		v = append(v, violation("BC-7", sc, strings.Join(a.obs.onceViol, "; ")))
	}
	// BC-8 determinism: identical runs, identical digests (error digests
	// included — a failed run must fail identically).
	if a.digest != b.digest {
		v = append(v, violation("BC-8", sc, fmt.Sprintf(
			"two identical runs diverged: %.12s != %.12s", a.digest, b.digest)))
	}
	return v, a.digest, nil
}
