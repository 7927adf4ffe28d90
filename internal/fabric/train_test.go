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
			f.SetCoalescing(false)
			size := units.Bytes(n) * f.Params().MTU
			done := f.Send(0, 1, size)
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if want := units.Time(f.MinLatency(0, 1, size)); done.FiredAt() != want {
				t.Fatalf("%s/%d chunks: delivered at %v, want %v", c.name, n, done.FiredAt(), want)
			}
			// Every chunk state the run built is back in the pool.
			if built := len(f.freeChunks); built > 4 {
				t.Errorf("%s/%d chunks: built %d chunk states, want at most 4", c.name, n, built)
			}
		}
	}
}

// tieStorm runs traffic built for same-picosecond ties: round link rates
// and latencies, chunk-multiple sizes, injections on a grid of chunk
// times, and many sources sending into two destinations, so chunks of
// different messages reach shared stages, and adaptive spine choices, at
// the same picosecond. It returns the storm's outcome and the order in
// which the messages were delivered.
func tieStorm(t *testing.T, params Params, radix, nodes int, seed uint64, armed bool) (stormOutcome, []int) {
	t.Helper()
	eng := sim.NewEngine()
	f := mustNew(t, eng, nodes, radix, params)
	f.SetCoalescing(false)
	if armed {
		f.EnableFaults(seed)
	}
	r := rng.New(seed)
	mtu := params.MTU
	sizes := []units.Bytes{mtu, 2 * mtu, 3*mtu + mtu/2, 8 * mtu, 16 * mtu}
	const msgs = 48
	out := stormOutcome{fired: make([]units.Time, msgs)}
	var order []int
	for i := 0; i < msgs; i++ {
		src := 2 + r.Intn(nodes-2)
		dst := r.Intn(2)
		size := sizes[r.Intn(len(sizes))]
		at := units.Time(r.Intn(12)) * units.Time(params.LinkBandwidth.TimeFor(mtu))
		slot := i
		eng.At(at, func() {
			f.Send(src, dst, size).OnFire(func() {
				out.fired[slot] = eng.Now()
				order = append(order, slot)
			})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	out.final = eng.Now()
	for _, srvs := range [][]*sim.Server{f.links, f.hosts} {
		for _, srv := range srvs {
			out.busy = append(out.busy, srv.BusyUntil())
			out.total = append(out.total, srv.BusyTotal())
			out.served = append(out.served, srv.Served())
		}
	}
	return out, order
}

// TestTrainKeysExact checks that a train gives every event the key the
// per-chunk loop gives it. Arming faults without installing one keeps the
// per-chunk loop and changes no timing, so across fabrics with and without
// a host stage, flat and two-level, the tie storm must deliver every
// message at the same time, in the same order, and leave the same
// per-server accounting, armed or not.
func TestTrainKeysExact(t *testing.T) {
	nohost := testParams()
	nohost.WireLatency = 100 * units.Nanosecond
	host := nohost
	host.HostBandwidth = 512 * units.MBps
	host.HostLatency = 200 * units.Nanosecond
	adaptive := nohost
	adaptive.Adaptive = true
	for _, c := range []stormFabric{
		{"nohost", nohost, 96, 8},
		{"host", host, 96, 8},
		{"nohost/2level", nohost, 8, 12},
		{"adaptive/2level", adaptive, 8, 12},
		{"host/adaptive/2level", host, 8, 12},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				trains, trainOrder := tieStorm(t, c.params, c.radix, c.nodes, seed, false)
				each, eachOrder := tieStorm(t, c.params, c.radix, c.nodes, seed, true)
				requireSameOutcome(t, seed, trains, each, "trains", "per-chunk")
				for i := range trainOrder {
					if trainOrder[i] != eachOrder[i] {
						t.Fatalf("seed %d: delivery %d is message %d with trains, %d per chunk",
							seed, i, trainOrder[i], eachOrder[i])
					}
				}
			}
		})
	}
}
