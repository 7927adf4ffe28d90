package mpi_test

// Randomized integration stress: a seeded random traffic pattern with real
// payloads, checked end to end. This exercises every protocol tier, the
// sequencers, the shm channel, unexpected queues, and credit flow at once
// — if any of them corrupts ordering or data, the checksums catch it.

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/units"
)

type stressMsg struct {
	src, seq int
	size     units.Bytes
}

func TestRandomTrafficIntegrity(t *testing.T) {
	const (
		ranks       = 8
		ppn         = 2
		msgsPerRank = 30
	)
	onBoth(t, func(t *testing.T, net platform.Network) {
		for _, seed := range []uint64{1, 7} {
			seed := seed
			t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
				m := build(t, net, ranks, ppn)

				// Deterministic plan, identical on every rank: who sends
				// what to whom, in per-sender order.
				type planned struct {
					dst  int
					size units.Bytes
				}
				plan := make([][]planned, ranks)
				src := rng.New(seed)
				sizes := []units.Bytes{0, 17, 512, 1024, 3000, 8192, 40 * units.KiB, 200 * units.KiB}
				for s := 0; s < ranks; s++ {
					for k := 0; k < msgsPerRank; k++ {
						dst := src.Intn(ranks - 1)
						if dst >= s {
							dst++ // never self (self-sends tested elsewhere)
						}
						plan[s] = append(plan[s], planned{dst, sizes[src.Intn(len(sizes))]})
					}
				}
				// Expected receive streams, per (receiver, sender), in order.
				expect := make([][][]stressMsg, ranks)
				for r := range expect {
					expect[r] = make([][]stressMsg, ranks)
				}
				for s := 0; s < ranks; s++ {
					for k, pl := range plan[s] {
						expect[pl.dst][s] = append(expect[pl.dst][s],
							stressMsg{src: s, seq: k, size: pl.size})
					}
				}

				_, err := m.Run(func(r *mpi.Rank) {
					me := r.ID()
					var sends []*mpi.Request
					for k, pl := range plan[me] {
						payload := stressMsg{src: me, seq: k, size: pl.size}
						sends = append(sends, r.IsendPayload(pl.dst, 5, pl.size, payload))
						// Interleave a little compute so arrival timing varies.
						if k%5 == 0 {
							r.Compute(3*units.Microsecond, 0)
						}
					}
					// Receive per-sender streams concurrently.
					var recvs []*mpi.Request
					var wants []stressMsg
					for s := 0; s < ranks; s++ {
						for range expect[me][s] {
							recvs = append(recvs, r.Irecv(s, 5))
						}
					}
					r.Waitall(sends...)
					// Reconstruct per-sender order from completions; each
					// status comes from the Wait that releases its request.
					got := map[int][]stressMsg{}
					for _, q := range recvs {
						st := r.Wait(q)
						msg := st.Payload.(stressMsg)
						if units.Bytes(msg.size) != st.Size {
							t.Errorf("rank %d: size mismatch %v vs %v", me, msg.size, st.Size)
						}
						got[st.Src] = append(got[st.Src], msg)
					}
					for s := 0; s < ranks; s++ {
						if len(got[s]) != len(expect[me][s]) {
							t.Errorf("rank %d: %d msgs from %d, want %d", me, len(got[s]), s, len(expect[me][s]))
							continue
						}
						for i, w := range expect[me][s] {
							g := got[s][i]
							if g != w {
								t.Errorf("rank %d from %d at %d: got %+v want %+v", me, s, i, g, w)
								break
							}
						}
					}
					_ = wants
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	})
}

// TestRandomTrafficDeterminism: the same seed gives bit-identical timing.
// The pattern pairs ranks by XOR masks (symmetric: my peer's peer is me),
// with every rank deriving the same mask sequence from a shared seed.
func TestRandomTrafficDeterminism(t *testing.T) {
	run := func() units.Duration {
		m := build(t, platform.InfiniBand4X, 8, 2)
		res, err := m.Run(func(r *mpi.Rank) {
			src := rng.New(99)
			for k := 0; k < 10; k++ {
				mask := 1 + src.Intn(r.Size()-1)
				peer := r.ID() ^ mask
				size := units.Bytes(src.Intn(4096))
				sreq := r.Isend(peer, k, size)
				rreq := r.Irecv(peer, k)
				r.Wait(sreq)
				r.Wait(rreq)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
