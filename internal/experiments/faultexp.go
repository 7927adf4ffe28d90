package experiments

import (
	"context"
	"fmt"

	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/runner"
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
// ignores Options.Faults.
func runXFault(o Options) (*Result, error) {
	const size = 4 * units.KiB
	ppIters, stIters := 200, 25
	spIters := 50
	if o.Quick {
		ppIters, stIters = 50, 5
		spIters = 20
	}

	r := &Result{ID: "xfault", Title: "Degraded fabric: recovery architecture under injected faults"}

	// --- Sweep 1: chunk loss on rank 0's injection link. -----------------
	lossPs := []float64{0, 0.001, 0.01, 0.05}
	type lossCell struct {
		net platform.Network
		p   float64
	}
	var lossCells []lossCell
	for _, p := range lossPs {
		for _, net := range platform.Networks {
			lossCells = append(lossCells, lossCell{net, p})
		}
	}
	type lossVal struct {
		latUS, mbps      float64
		retried, retrans uint64
	}
	lossJobs := make([]runner.Job, len(lossCells))
	for i, c := range lossCells {
		c := c
		id := fmt.Sprintf("loss %s p=%g", c.net.Short(), c.p)
		lossJobs[i] = runner.Job{ID: id,
			Labels: map[string]string{"net": c.net.Short(), "p": fmt.Sprint(c.p)},
			Run: func(_ context.Context) (interface{}, error) {
				spec := ""
				if c.p > 0 {
					spec = fmt.Sprintf("loss:inj(0):p=%g", c.p)
				}
				var v lossVal
				// Ping-pong latency.
				span, m, err := faultPingPong(o, c.net, spec, 0, 1, size, ppIters)
				if err != nil {
					return nil, err
				}
				lat := span / units.Duration(2*ppIters)
				v.latUS = lat.Microseconds()
				v.retried, v.retrans = recoveryCounts(m)
				// Streaming bandwidth (same machine shape, fresh machine).
				bw, m, err := faultStreaming(o, c.net, spec, size, stIters)
				if err != nil {
					return nil, err
				}
				v.mbps = bw
				hw, rt := recoveryCounts(m)
				v.retried += hw
				v.retrans += rt
				return v, nil
			}}
	}
	lossRes := o.pool("xfault-loss").Run(o.ctx(), lossJobs)
	attachFailures(r, runner.Failures(lossRes))

	t1 := newTable("Injection-link chunk loss (ping-pong + streaming, 4 KiB)",
		"loss p", "Elan4 lat us", "IB lat us", "Elan4 stream MB/s", "IB stream MB/s",
		"Elan4 hw retries", "IB retransmits")
	cellOf := func(res []runner.Result, idx int) lossVal {
		if idx < 0 || res[idx].Err != nil || res[idx].Value == nil {
			return lossVal{}
		}
		return res[idx].Value.(lossVal)
	}
	for pi, p := range lossPs {
		// Cells were laid out p-major over Networks = [Elan, IB].
		el := cellOf(lossRes, pi*2)
		ib := cellOf(lossRes, pi*2+1)
		t1.AddRow(fmt.Sprintf("%g", p),
			fmt.Sprintf("%.2f", el.latUS), fmt.Sprintf("%.2f", ib.latUS),
			fmt.Sprintf("%.0f", el.mbps), fmt.Sprintf("%.0f", ib.mbps),
			fmt.Sprint(el.retried), fmt.Sprint(ib.retrans))
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
	type spineCell struct {
		net platform.Network
		wi  int
	}
	var spineCells []spineCell
	for wi := range windows {
		for _, net := range platform.Networks {
			spineCells = append(spineCells, spineCell{net, wi})
		}
	}
	type spineVal struct {
		totalMS           float64
		rerouted, retrans uint64
	}
	spineJobs := make([]runner.Job, len(spineCells))
	for i, c := range spineCells {
		c := c
		id := fmt.Sprintf("spine %s %s", c.net.Short(), windows[c.wi].label)
		spineJobs[i] = runner.Job{ID: id,
			Labels: map[string]string{"net": c.net.Short(), "outage": windows[c.wi].label},
			Run: func(_ context.Context) (interface{}, error) {
				span, m, err := faultPingPong(o, c.net, windows[c.wi].spec, 0, 6, size, spIters)
				if err != nil {
					return nil, err
				}
				_, retrans := recoveryCounts(m)
				return spineVal{totalMS: span.Seconds() * 1e3,
					rerouted: m.Fab.FaultStats().ChunksRerouted, retrans: retrans}, nil
			}}
	}
	spineRes := o.pool("xfault-spine").Run(o.ctx(), spineJobs)
	attachFailures(r, runner.Failures(spineRes))

	t2 := newTable("Spine-0 outage, radix-4 fabric (ping-pong 0<->6, 4 KiB)",
		"outage", "Elan4 total ms", "IB total ms", "Elan4 rerouted chunks", "IB retransmits")
	for wi, w := range windows {
		var el, ib spineVal
		if res := spineRes[wi*2]; res.Err == nil && res.Value != nil {
			el = res.Value.(spineVal)
		}
		if res := spineRes[wi*2+1]; res.Err == nil && res.Value != nil {
			ib = res.Value.(spineVal)
		}
		t2.AddRow(w.label,
			fmt.Sprintf("%.3f", el.totalMS), fmt.Sprintf("%.3f", ib.totalMS),
			fmt.Sprint(el.rerouted), fmt.Sprint(ib.retrans))
	}
	r.Tables = append(r.Tables, t2)
	r.Notes = append(r.Notes,
		"Elan-4 absorbs loss in ~500ns link-level hardware retries and routes around the dead spine per packet; InfiniBand pays >=100us of RC transport timeout per loss and must wait out a spine outage on its exponential backoff ladder — smooth degradation vs a knee at the retransmission timeout")
	return r, nil
}

// faultPingPong runs a ping-pong between ranks a and b under the given
// fault spec and returns the measured span (2*iters one-way trips) plus the
// machine for counter inspection. Ranks other than a and b exit at once.
func faultPingPong(o Options, net platform.Network, spec string, a, b int,
	size units.Bytes, iters int) (units.Duration, *platform.Machine, error) {
	opts := platform.Options{Network: net, Ranks: 2, PPN: 1,
		Metrics: o.Metrics, FaultSpec: spec,
		Label: fmt.Sprintf("xfault pp %s", net.Short())}
	if b >= 2 {
		// The spine sweep needs a multi-leaf fabric: 8 nodes, radix 4.
		opts.Ranks, opts.Radix = 8, 4
	}
	m, err := platform.New(opts)
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

// faultStreaming streams windowed non-blocking sends 0->1 under the given
// fault spec and returns sustained bandwidth in MB/s plus the machine.
func faultStreaming(o Options, net platform.Network, spec string,
	size units.Bytes, iters int) (float64, *platform.Machine, error) {
	const window = 8
	m, err := platform.New(platform.Options{Network: net, Ranks: 2, PPN: 1,
		Metrics: o.Metrics, FaultSpec: spec,
		Label: fmt.Sprintf("xfault stream %s", net.Short())})
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
