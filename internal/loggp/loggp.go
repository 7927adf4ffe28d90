// Package loggp extracts LogGP parameters (Culler et al.; Alexandrov et
// al.) from the simulated interconnects: L (wire latency), o (host
// overhead per message), g (gap between messages — the reciprocal of
// message rate), and G (gap per byte — the reciprocal of bandwidth).
//
// The paper's Section 7 calls for "techniques to study the exact source of
// differences in scaling efficiency"; its reference [15] (Martin et al.)
// does exactly this with LogGP-style decomposition. This package applies
// the standard extraction micro-benchmarks to both simulated networks, so
// the architectural contrasts of Section 3 become four numbers each.
package loggp

import (
	"fmt"
	"strings"

	"repro/internal/microbench"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/units"
)

// Params is one network's LogGP characterization.
type Params struct {
	Network platform.Network
	// L is the end-to-end latency not attributable to host overhead: time
	// in NICs, switches, and wires.
	L units.Duration
	// O is the host (CPU) overhead to initiate a send.
	O units.Duration
	// Gap is the minimum interval between consecutive small messages
	// (1/message-rate under streaming).
	Gap units.Duration
	// G is the per-byte gap (1/asymptotic-bandwidth).
	G units.Duration
}

// String renders the parameter set.
func (p *Params) String() string {
	return fmt.Sprintf("%s: L=%v o=%v g=%v G=%.3fns/B (%.0f MB/s)",
		p.Network.Short(), p.L, p.O, p.Gap,
		p.G.Nanoseconds(), 1e3/p.G.Nanoseconds())
}

// PredictLatency evaluates the LogGP one-way time for a size-byte message:
// L + 2o + (size-1)G.
func (p *Params) PredictLatency(size units.Bytes) units.Duration {
	d := p.L + 2*p.O
	if size > 1 {
		d += units.Duration(size-1) * p.G
	}
	return d
}

// Measure extracts the parameters by running the standard micro-benchmarks
// on two-node instances of base's network, each built from base: its
// environment (Metrics, FaultSpec, Ctx) reaches every machine, and each
// machine's timeline label is base.Label plus the benchmark's name. Once
// base.Ctx is done, the running simulation stops and Measure returns an
// error wrapping sim.ErrCanceled.
func Measure(base platform.Options) (*Params, error) {
	out := &Params{Network: base.Network}
	named := func(bench string) platform.Options {
		o := base
		o.Label = strings.TrimSpace(base.Label + " " + bench)
		return o
	}

	// o: the time an Isend occupies the host before returning, averaged
	// over a small burst (kept under the eager credit ring).
	o, err := measureOverhead(named("overhead"))
	if err != nil {
		return nil, err
	}
	out.O = o

	// Round trip: 0-byte ping-pong gives L + 2o per direction.
	pp, err := microbench.PingPong(named("pingpong"), []units.Bytes{0}, 30)
	if err != nil {
		return nil, err
	}
	out.L = pp[0].Latency - 2*o
	if out.L < 0 {
		out.L = 0
	}

	// g: streaming 1-byte messages; G: streaming 1 MiB messages.
	st, err := microbench.Streaming(named("streaming"), []units.Bytes{1, 1 * units.MiB}, 16, 10)
	if err != nil {
		return nil, err
	}
	out.Gap = st[0].Bandwidth.TimeFor(1)
	out.G = units.Duration(float64(st[1].Bandwidth.TimeFor(1*units.MiB)) / float64(1*units.MiB))
	return out, nil
}

// measureOverhead times a burst of nonblocking sends at the sender.
func measureOverhead(opts platform.Options) (units.Duration, error) {
	opts.Ranks, opts.PPN = 2, 1
	m, err := platform.New(opts)
	if err != nil {
		return 0, err
	}
	const burst = 16
	var o units.Duration
	_, err = m.Run(func(r *mpi.Rank) {
		if r.ID() == 1 {
			for i := 0; i < burst; i++ {
				r.Recv(0, 0)
			}
			return
		}
		reqs := make([]*mpi.Request, burst)
		start := r.Now()
		for i := range reqs {
			reqs[i] = r.Isend(1, 0, 0)
		}
		o = r.Now().Sub(start) / burst
		r.Waitall(reqs...)
	})
	if err != nil {
		return 0, err
	}
	return o, nil
}
