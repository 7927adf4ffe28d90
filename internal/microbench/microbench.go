// Package microbench implements the paper's three micro-benchmarks
// (Section 2.1): Pallas-style ping-pong, non-blocking streaming, and the
// Effective Bandwidth (b_eff) benchmark. Each builds its machine from a
// base platform.Options: the caller sets Network and, optionally, the
// machine's environment (Metrics, Label, FaultSpec, Ctx); the benchmark
// sets the rank layout.
package microbench

import (
	"fmt"
	"math"

	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/units"
)

// PingPongPoint is one row of Figure 1(a)/(b): the average one-way latency
// and the implied bandwidth at one message size.
type PingPongPoint struct {
	Size      units.Bytes
	Latency   units.Duration
	Bandwidth units.Rate
}

// DefaultSizes returns the power-of-two size sweep of Figure 1 (1 B–4 MB,
// plus 0 B for pure latency).
func DefaultSizes() []units.Bytes {
	sizes := []units.Bytes{0}
	for s := units.Bytes(1); s <= 4*units.MiB; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}

// PingPong runs the Pallas-PingPong pattern between two ranks on base's
// network: rank 0 sends, rank 1 returns the same message; latency is half
// the round trip, averaged over iters exchanges after warmup.
func PingPong(base platform.Options, sizes []units.Bytes, iters int) ([]PingPongPoint, error) {
	base.Ranks, base.PPN = 2, 1
	m, err := platform.New(base)
	if err != nil {
		return nil, err
	}
	points := make([]PingPongPoint, len(sizes))
	_, err = m.Run(func(r *mpi.Rank) {
		const warmup = 2
		for i, size := range sizes {
			var start units.Time
			for it := 0; it < warmup+iters; it++ {
				if it == warmup && r.ID() == 0 {
					start = r.Now()
				}
				if r.ID() == 0 {
					r.Send(1, i, size)
					r.Recv(1, i)
				} else {
					r.Recv(0, i)
					r.Send(0, i, size)
				}
			}
			if r.ID() == 0 {
				total := r.Now().Sub(start)
				lat := total / units.Duration(2*iters)
				points[i] = PingPongPoint{Size: size, Latency: lat}
				if size > 0 && lat > 0 {
					points[i].Bandwidth = units.RateOver(size, lat)
				}
			}
			// Keep the two ranks in lockstep between sizes.
			r.Barrier()
		}
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// StreamingPoint is one row of the streaming-bandwidth curve of Figure
// 1(b): sustained unidirectional bandwidth with many messages in flight.
type StreamingPoint struct {
	Size      units.Bytes
	Bandwidth units.Rate
}

// Streaming runs the non-blocking streaming pattern on base's network: the receiver pre-posts
// `window` receives; the sender fires `window` back-to-back nonblocking
// sends; both wait; repeat for iters windows. This quantifies the ability
// to fill the message-passing pipeline (Section 2.1).
func Streaming(base platform.Options, sizes []units.Bytes, window, iters int) ([]StreamingPoint, error) {
	base.Ranks, base.PPN = 2, 1
	m, err := platform.New(base)
	if err != nil {
		return nil, err
	}
	points := make([]StreamingPoint, len(sizes))
	_, err = m.Run(func(r *mpi.Rank) {
		for i, size := range sizes {
			r.Barrier()
			start := r.Now()
			for it := 0; it < iters; it++ {
				reqs := make([]*mpi.Request, window)
				if r.ID() == 1 {
					for k := range reqs {
						reqs[k] = r.Irecv(0, i)
					}
					r.Waitall(reqs...)
					r.Send(0, 1000+i, 0) // window ack
				} else {
					for k := range reqs {
						reqs[k] = r.Isend(1, i, size)
					}
					r.Waitall(reqs...)
					r.Recv(1, 1000+i)
				}
			}
			if r.ID() == 0 {
				total := r.Now().Sub(start)
				bytes := units.Bytes(window*iters) * size
				points[i] = StreamingPoint{Size: size, Bandwidth: units.RateOver(bytes, total)}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// BEffResult is one row of Figure 1(d).
type BEffResult struct {
	Ranks      int
	BEff       units.Rate // aggregate effective bandwidth
	PerProcess units.Rate // b_eff / P, the paper's plotted metric
}

// BEffSizes returns the geometric message-size ladder of the b_eff
// benchmark (21 sizes, 1 B to 1 MiB). The logarithmic average over this
// ladder weights short messages heavily, which is why b_eff reads low
// relative to peak bandwidth (Section 4.1).
func BEffSizes() []units.Bytes {
	sizes := make([]units.Bytes, 0, 21)
	s := 1.0
	for len(sizes) < 21 {
		sizes = append(sizes, units.Bytes(math.Round(s)))
		s *= math.Pow(float64(1*units.MiB), 1.0/20)
	}
	return sizes
}

// BEff measures effective bandwidth for a job of the given size at 1
// process per node on base's network, following the b_eff method: several communication
// patterns (rings and random pairings), the geometric size ladder, and a
// logarithmic average over sizes of the pattern-average aggregate
// bandwidth.
//
// This is a faithful re-implementation of the benchmark's structure, not a
// line-for-line port: patterns are one nearest-neighbour ring, one
// stride-ring, and three seeded random permutations; each is measured with
// Sendrecv loops.
func BEff(base platform.Options, ranks, itersPerSize int, seed uint64) (*BEffResult, error) {
	if ranks < 2 {
		return nil, fmt.Errorf("microbench: b_eff needs at least 2 ranks")
	}
	base.Ranks, base.PPN = ranks, 1
	m, err := platform.New(base)
	if err != nil {
		return nil, err
	}
	sizes := BEffSizes()
	patterns := beffPatterns(ranks, seed)
	// perSize[s] = average over patterns of aggregate bandwidth.
	perSize := make([]float64, len(sizes))
	var spans []units.Duration // filled by rank 0: span per (size, pattern)
	_, err = m.Run(func(r *mpi.Rank) {
		for _, pat := range patterns {
			sendTo := pat[r.ID()]
			recvFrom := inverse(pat)[r.ID()]
			for si, size := range sizes {
				r.Barrier()
				start := r.Now()
				for it := 0; it < itersPerSize; it++ {
					r.Sendrecv(sendTo, si, size, recvFrom, si)
				}
				r.Barrier()
				if r.ID() == 0 {
					_ = si
					spans = append(spans, r.Now().Sub(start))
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	// Aggregate: every rank moved size*iters bytes per pattern measurement.
	k := 0
	for range patterns {
		for si, size := range sizes {
			span := spans[k]
			k++
			if span <= 0 {
				continue
			}
			bytes := units.Bytes(ranks*itersPerSize) * size
			perSize[si] += float64(units.RateOver(bytes, span)) / float64(len(patterns))
		}
	}
	// Logarithmic average over sizes.
	logSum := 0.0
	n := 0
	for _, b := range perSize {
		if b > 0 {
			logSum += math.Log(b)
			n++
		}
	}
	beff := units.Rate(math.Exp(logSum / float64(n)))
	return &BEffResult{
		Ranks:      ranks,
		BEff:       beff,
		PerProcess: beff / units.Rate(ranks),
	}, nil
}

// beffPatterns builds the communication patterns: ring, stride ring, and
// three random permutations (fixed seed => reproducible).
func beffPatterns(ranks int, seed uint64) [][]int {
	var pats [][]int
	ring := make([]int, ranks)
	for i := range ring {
		ring[i] = (i + 1) % ranks
	}
	pats = append(pats, ring)
	if ranks > 3 {
		stride := make([]int, ranks)
		for i := range stride {
			stride[i] = (i + ranks/2) % ranks
		}
		pats = append(pats, stride)
	}
	src := rng.New(seed)
	for k := 0; k < 3; k++ {
		pats = append(pats, randomDerangement(src, ranks))
	}
	return pats
}

// randomDerangement returns a permutation with no fixed points, so no rank
// "communicates" with itself.
func randomDerangement(src *rng.Source, n int) []int {
	for {
		p := src.Perm(n)
		ok := true
		for i, v := range p {
			if i == v {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
}

func inverse(p []int) []int {
	inv := make([]int, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}
