package fabric

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestTrainChunkStates pins what trains save: a multi-chunk message takes
// chunk states only past its first stage, where a chunk retires soon after
// it arrives, so a cold fabric carrying one idle message builds a few
// chunk states, not one per chunk, however long the message.
func TestTrainChunkStates(t *testing.T) {
	for _, c := range []struct {
		name   string
		params Params
	}{
		{"nohost", testParams()},
		{"host", hostParams()},
	} {
		for _, n := range []int{64, 512} {
			eng := sim.NewEngine()
			f := mustNew(t, eng, 4, 8, c.params)
			f.coalesce = false
			size := units.Bytes(n) * f.Params().MTU
			done := f.Send(0, 1, size)
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if want := units.Time(f.MinLatency(0, 1, size)); done.FiredAt() != want {
				t.Fatalf("%s/%d chunks: delivered at %v, want %v", c.name, n, done.FiredAt(), want)
			}
			// Every chunk state the run built is back in the pool.
			if built := f.freeChunks.Len(); built > 4 {
				t.Errorf("%s/%d chunks: built %d chunk states, want at most 4", c.name, n, built)
			}
		}
	}
}

// tieFabrics are the fabrics the tie storm runs on: round rates and
// latencies, with and without a host stage, flat and two-level, with
// deterministic and adaptive spine choice.
func tieFabrics() []stormFabric {
	nohost := testParams()
	nohost.WireLatency = 100 * units.Nanosecond
	host := nohost
	host.HostBandwidth = 512 * units.MBps
	host.HostLatency = 200 * units.Nanosecond
	adaptive := nohost
	adaptive.Adaptive = true
	return []stormFabric{
		{"nohost", nohost, 96, 8},
		{"host", host, 96, 8},
		{"nohost/2level", nohost, 8, 12},
		{"adaptive/2level", adaptive, 8, 12},
		{"host/adaptive/2level", host, 8, 12},
	}
}

// tieStorm is traffic built for same-picosecond ties: round link rates
// and latencies, chunk-multiple sizes, injections on a grid of chunk
// times, and many sources sending into two destinations, so chunks of
// different messages reach shared stages, and adaptive spine choices, at
// the same picosecond.
func tieStorm(eng *sim.Engine, net stormNet, params Params, nodes int, seed uint64, out *stormOutcome) {
	r := rng.New(seed)
	mtu := params.MTU
	sizes := []units.Bytes{mtu, 2 * mtu, 3*mtu + mtu/2, 8 * mtu, 16 * mtu}
	const msgs = 48
	out.fired = make([]units.Time, msgs)
	for i := 0; i < msgs; i++ {
		src := 2 + r.Intn(nodes-2)
		dst := r.Intn(2)
		size := sizes[r.Intn(len(sizes))]
		at := units.Time(r.Intn(12)) * units.Time(params.LinkBandwidth.TimeFor(mtu))
		slot := i
		eng.At(at, func() { out.deliver(eng, slot, net.Send(src, dst, size)) })
	}
}

// randomTieStorm is the tie storm with random destinations: the general
// storm's traffic (see traffic), but with sizes from a bare header to 16
// chunks and with injections and doorbells on the tie storm's grid of
// chunk times. Same-picosecond deliveries then meet on disjoint paths as
// well as shared ones.
func randomTieStorm(eng *sim.Engine, net stormNet, params Params, nodes int, seed uint64, out *stormOutcome) {
	mtu := params.MTU
	sizes := []units.Bytes{0, mtu / 2, mtu, 2 * mtu, 3*mtu + mtu/2, 8 * mtu, 16 * mtu}
	grid := params.LinkBandwidth.TimeFor(mtu)
	at := func(r *rng.Source) units.Time { return units.Time(r.Intn(12)) * units.Time(grid) }
	ring := func(r *rng.Source) units.Duration { return units.Duration(r.Intn(4)) * grid / 2 }
	traffic(eng, net, nodes, rng.New(seed), sizes, at, ring, out)
}
