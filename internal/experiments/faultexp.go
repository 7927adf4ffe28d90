package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/units"
)

func init() {
	register("xfault", "Extension: fault injection — link loss and spine outages vs recovery architecture", runXFault)
}

// runXFault measures how each interconnect's recovery architecture degrades
// under injected faults — the dimension the paper's Section 3 describes
// qualitatively but its fault-free testbed never exercises:
//
//   - QsNetII recovers in link-level hardware: a corrupted packet is retried
//     on the same hop after ~500 ns, and per-packet adaptive routing steers
//     around a dead spine. Cost per fault event: nanoseconds.
//   - InfiniBand RC recovers at the endpoints: the responder discards bad
//     packets silently and the requester's transport timer (100 us initial,
//     exponential backoff) retransmits. Cost per fault event: at least one
//     timeout — five orders of magnitude above the wire-level retry.
//
// Two sweeps. The first injects increasing chunk-loss probability on rank
// 0's injection link and watches ping-pong latency and streaming bandwidth:
// Elan-4 degrades by nanoseconds per lost chunk while InfiniBand falls off
// a cliff once timeouts dominate. The second takes a spine down for windows
// of increasing length on a narrow radix-4 fabric: Elan traffic reroutes
// around the dead spine almost for free, while InfiniBand (static
// destination routes through that spine) stalls until its backoff ladder
// outlasts the outage. This experiment builds its own fault specs and
// ignores Options.Faults: each point sets its base's FaultSpec.
func runXFault(o Options) (*Result, error) {
	const size = 4 * units.KiB
	ppIters, stIters := 200, 25
	spIters := 50
	if o.Quick {
		ppIters, stIters = 50, 5
		spIters = 20
	}

	r := &Result{ID: "xfault", Title: "Degraded fabric: recovery architecture under injected faults"}

	// fixed(prec) renders a value with prec decimals; the counters are
	// whole numbers.
	fixed := func(prec int) func(float64) string {
		return func(v float64) string { return strconv.FormatFloat(v, 'f', prec, 64) }
	}
	el, ib := platform.QuadricsElan4, platform.InfiniBand4X

	// --- Sweep 1: chunk loss on rank 0's injection link. -----------------
	lossPs := []float64{0, 0.001, 0.01, 0.05}
	lossID := func(net platform.Network, p float64) string { return fmt.Sprintf("loss %s p=%g", net.Short(), p) }
	var lossPoints []point
	for _, p := range lossPs {
		for _, net := range platform.Networks {
			lossPoints = append(lossPoints, point{lossID(net, p),
				func(base platform.Options) ([]float64, error) {
					base.Network, base.FaultSpec = net, ""
					if p > 0 {
						base.FaultSpec = fmt.Sprintf("loss:inj(0):p=%g", p)
					}
					// Ping-pong latency.
					span, m, err := faultPingPong(base, 0, 1, size, ppIters)
					if err != nil {
						return nil, err
					}
					lat := span / units.Duration(2*ppIters)
					retried, retrans := recoveryCounts(m)
					// Streaming bandwidth (same machine shape, fresh machine).
					bw, m, err := faultStreaming(base, size, stIters)
					if err != nil {
						return nil, err
					}
					hw, rt := recoveryCounts(m)
					return []float64{lat.Microseconds(), bw, float64(retried + hw), float64(retrans + rt)}, nil
				}})
		}
	}
	loss := runPoints(o, r, lossPoints)

	t1 := newTable("Injection-link chunk loss (ping-pong + streaming, 4 KiB)",
		"loss p", "Elan4 lat us", "IB lat us", "Elan4 stream MB/s", "IB stream MB/s",
		"Elan4 hw retries", "IB retransmits")
	for _, p := range lossPs {
		// Each point measures latency, bandwidth, hardware retries and
		// retransmits.
		e, b := lossID(el, p), lossID(ib, p)
		t1.AddRow(fmt.Sprintf("%g", p), fmtCell(loss.at(e, 0), fixed(2)), fmtCell(loss.at(b, 0), fixed(2)),
			fmtCell(loss.at(e, 1), fixed(0)), fmtCell(loss.at(b, 1), fixed(0)),
			fmtCell(loss.at(e, 2), fixed(0)), fmtCell(loss.at(b, 3), fixed(0)))
	}
	r.Tables = append(r.Tables, t1)

	// --- Sweep 2: spine outage on a narrow radix-4 fabric. ---------------
	// 8 nodes on radix-4 chassis => 4 leaves, 2 spines. Ranks 0 and 6 sit
	// on different leaves and IB's destination-mod route for both
	// directions runs through spine 0 — the one taken down.
	windows := []struct{ label, spec string }{
		{"none", ""},
		{"50us", "down:spine(0):at=20us:for=50us"},
		{"200us", "down:spine(0):at=20us:for=200us"},
		{"1ms", "down:spine(0):at=20us:for=1ms"},
		{"5ms", "down:spine(0):at=20us:for=5ms"},
	}
	spineID := func(net platform.Network, window string) string {
		return fmt.Sprintf("spine %s %s", net.Short(), window)
	}
	var spinePoints []point
	for _, w := range windows {
		for _, net := range platform.Networks {
			spinePoints = append(spinePoints, point{spineID(net, w.label),
				func(base platform.Options) ([]float64, error) {
					base.Network, base.FaultSpec = net, w.spec
					span, m, err := faultPingPong(base, 0, 6, size, spIters)
					if err != nil {
						return nil, err
					}
					_, retrans := recoveryCounts(m)
					return []float64{span.Seconds() * 1e3, float64(m.Fab.FaultStats().ChunksRerouted), float64(retrans)}, nil
				}})
		}
	}
	spine := runPoints(o, r, spinePoints)

	t2 := newTable("Spine-0 outage, radix-4 fabric (ping-pong 0<->6, 4 KiB)",
		"outage", "Elan4 total ms", "IB total ms", "Elan4 rerouted chunks", "IB retransmits")
	for _, w := range windows {
		// Each point measures total time, rerouted chunks and retransmits.
		e, b := spineID(el, w.label), spineID(ib, w.label)
		t2.AddRow(w.label, fmtCell(spine.at(e, 0), fixed(3)), fmtCell(spine.at(b, 0), fixed(3)),
			fmtCell(spine.at(e, 1), fixed(0)), fmtCell(spine.at(b, 2), fixed(0)))
	}
	r.Tables = append(r.Tables, t2)
	r.Notes = append(r.Notes,
		"Elan-4 absorbs loss in ~500ns link-level hardware retries and routes around the dead spine per packet; InfiniBand pays >=100us of RC transport timeout per loss and must wait out a spine outage on its exponential backoff ladder — smooth degradation vs a knee at the retransmission timeout")
	return r, nil
}

// faultPingPong runs a ping-pong between ranks a and b on a machine built
// from base (network and fault spec set) and returns the measured span
// (2*iters one-way trips) plus the machine for counter inspection. Ranks
// other than a and b exit at once.
func faultPingPong(base platform.Options, a, b int,
	size units.Bytes, iters int) (units.Duration, *platform.Machine, error) {
	base.Ranks, base.PPN = 2, 1
	base.Label += " pingpong"
	if b >= 2 {
		// The spine sweep needs a multi-leaf fabric: 8 nodes, radix 4.
		base.Ranks, base.Radix = 8, 4
	}
	m, err := platform.New(base)
	if err != nil {
		return 0, nil, err
	}
	var span units.Duration
	_, err = m.Run(func(r *mpi.Rank) {
		switch r.ID() {
		case a:
			start := r.Now()
			for it := 0; it < iters; it++ {
				r.Send(b, it, size)
				r.Recv(b, it)
			}
			span = r.Now().Sub(start)
		case b:
			for it := 0; it < iters; it++ {
				r.Recv(a, it)
				r.Send(a, it, size)
			}
		}
	})
	if err != nil {
		return 0, nil, err
	}
	return span, m, nil
}

// faultStreaming streams windowed non-blocking sends 0->1 on a machine
// built from base (network and fault spec set) and returns sustained
// bandwidth in MB/s plus the machine.
func faultStreaming(base platform.Options, size units.Bytes, iters int) (float64, *platform.Machine, error) {
	const window = 8
	base.Ranks, base.PPN = 2, 1
	base.Label += " streaming"
	m, err := platform.New(base)
	if err != nil {
		return 0, nil, err
	}
	var span units.Duration
	_, err = m.Run(func(r *mpi.Rank) {
		start := r.Now()
		for it := 0; it < iters; it++ {
			reqs := make([]*mpi.Request, window)
			if r.ID() == 1 {
				for k := range reqs {
					reqs[k] = r.Irecv(0, it)
				}
				r.Waitall(reqs...)
				r.Send(0, 1000+it, 0)
			} else {
				for k := range reqs {
					reqs[k] = r.Isend(1, it, size)
				}
				r.Waitall(reqs...)
				r.Recv(1, 1000+it)
			}
		}
		if r.ID() == 0 {
			span = r.Now().Sub(start)
		}
	})
	if err != nil {
		return 0, nil, err
	}
	bytes := units.Bytes(window*iters) * size
	return units.RateOver(bytes, span).MBpsValue(), m, nil
}

// recoveryCounts reads the machine's recovery totals: hardware link-level
// retries (Elan) and RC retransmissions summed across HCAs (IB).
func recoveryCounts(m *platform.Machine) (hwRetried, retransmits uint64) {
	hwRetried = m.Fab.FaultStats().ChunksRetried
	if m.IB != nil {
		for i := 0; i < m.Fab.Nodes(); i++ {
			retransmits += m.IB.Network().HCA(i).Retransmits
		}
	}
	return hwRetried, retransmits
}
