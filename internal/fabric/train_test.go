package fabric

import (
	"fmt"
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

// TestExpansionAtOpenInjectsOnce pins what a window expanded at the
// instant it opened costs. It has served nothing, so its message takes
// its own injection event and crosses the first stage as a train, as if
// it had never coalesced. Two messages sent in one picosecond from
// different sources, the first coalesced and expanded by the second,
// dispatch exactly the events of the same two sends on the chunk model,
// plus one: the expanded window's stale completion. Both deliver at the
// closed-form time, and the run builds a few chunk states, not one per
// chunk.
func TestExpansionAtOpenInjectsOnce(t *testing.T) {
	for _, c := range []struct {
		name   string
		params Params
	}{
		{"nohost", testParams()},
		{"host", hostParams()},
	} {
		for _, chunks := range [][2]int{{1, 64}, {64, 1}, {64, 64}} {
			run := func(coalesce bool) (events uint64) {
				eng := sim.NewEngine()
				f := mustNew(t, eng, 4, 8, c.params)
				f.coalesce = coalesce
				mtu := f.Params().MTU
				a, b := units.Bytes(chunks[0])*mtu, units.Bytes(chunks[1])*mtu
				doneA := f.Send(0, 1, a)
				if coalesce && f.open == nil {
					t.Fatalf("%s/%v: first send opened no window", c.name, chunks)
				}
				doneB := f.Send(2, 3, b)
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				requireDrained(t, f)
				if want := units.Time(f.MinLatency(0, 1, a)); doneA.FiredAt() != want {
					t.Errorf("%s/%v coalesce=%v: first delivered at %v, want %v", c.name, chunks, coalesce, doneA.FiredAt(), want)
				}
				if want := units.Time(f.MinLatency(2, 3, b)); doneB.FiredAt() != want {
					t.Errorf("%s/%v coalesce=%v: second delivered at %v, want %v", c.name, chunks, coalesce, doneB.FiredAt(), want)
				}
				if built := f.freeChunks.Len(); built > 4 {
					t.Errorf("%s/%v coalesce=%v: built %d chunk states, want at most 4", c.name, chunks, coalesce, built)
				}
				return eng.Events()
			}
			if got, want := run(true), run(false)+1; got != want {
				t.Errorf("%s/%v: %d events, want %d", c.name, chunks, got, want)
			}
		}
	}
}

// TestExpansionTrainChunkStates pins what a later expansion saves: the
// chunks of a 512-chunk window still crossing the first stage go back as
// the message's train, not one chunk state each, and keep the keys the
// per-chunk re-issue gave them. A one-chunk message from another source
// to the same destination expands the window a few chunk times after it
// opened and then shares its later stages. Each run's event-key digest
// is the one the per-chunk re-issue produced, and both messages deliver
// when they do on the chunk model.
func TestExpansionTrainChunkStates(t *testing.T) {
	for _, c := range []struct {
		name   string
		params Params
		digest string
	}{
		{"nohost", testParams(), "511 events e806a4e69a7fa2b6"},
		{"host", hostParams(), "1524 events 3f3f2c41fac7d282"},
	} {
		var fired [2][2]units.Time
		for j, coalesce := range []bool{true, false} {
			eng := sim.NewEngine()
			f := mustNew(t, eng, 4, 8, c.params)
			f.coalesce = coalesce
			mtu := f.Params().MTU
			f.SendThen(0, 1, 512*mtu-mtu/2, func() { fired[j][0] = eng.Now() })
			if coalesce && f.open == nil {
				t.Fatalf("%s: first send opened no window", c.name)
			}
			eng.At(units.Time(10*f.stageTab[0].full), func() { // stage 0 is link 0
				f.SendThen(2, 1, mtu, func() { fired[j][1] = eng.Now() })
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			requireDrained(t, f)
			if !coalesce {
				continue
			}
			if built := f.freeChunks.Len(); built > 8 {
				t.Errorf("%s: built %d chunk states, want at most 8", c.name, built)
			}
			if got := fmt.Sprintf("%d events %016x", eng.Events(), sim.KeyDigest(eng)); got != c.digest {
				t.Errorf("%s: got %s, want %s", c.name, got, c.digest)
			}
		}
		if fired[0] != fired[1] {
			t.Errorf("%s: delivered at %v coalesced, %v on the chunk model", c.name, fired[0], fired[1])
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
