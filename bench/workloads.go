package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"

	"repro/internal/apps/lammps"
	"repro/internal/apps/sweep3d"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/units"
)

// defaultSeed is the seed golden.json was recorded at.
const defaultSeed = 1

// workloadNames lists the workloads in the order the README describes them.
var workloadNames = []string{"wavefront", "halo", "beff", "bulk"}

// simSpec is one simulation of a workload: a machine shape and the program
// its ranks run. key names the simulation's inputs completely, so two specs
// with the same key produce the same digest at any seed; golden.json is
// keyed by it.
type simSpec struct {
	key   string
	net   platform.Network
	ranks int
	ppn   int
	// body returns a fresh rank program and a function that folds the
	// program's own outputs into the digest once the run has ended (nil
	// when the elapsed times are the whole result).
	body func() (app func(*mpi.Rank), outputs func(*digest))
}

// buildWorkload generates a workload's simulations. It is a pure function
// of (name, seed): the benchmark's only source of input variation.
func buildWorkload(name string, seed uint64) ([]simSpec, error) {
	switch name {
	case "wavefront":
		return wavefront(), nil
	case "halo":
		return halo(), nil
	case "beff":
		return beff(seed), nil
	case "bulk":
		return bulk(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// wavefront is the Sweep3D KBA skeleton of Figure 4: single-chunk eager
// messages along a pipelined wavefront, so process switching, the event
// queue and MPI matching carry the host cost.
func wavefront() []simSpec {
	p := sweep3d.Default(60)
	p.Iterations = 2
	var sims []simSpec
	for _, net := range platform.Networks {
		for _, ranks := range []int{4, 9, 16} {
			sims = append(sims, simSpec{
				key: fmt.Sprintf("wavefront/%s/r%d", net.Short(), ranks),
				net: net, ranks: ranks, ppn: 1,
				body: func() (func(*mpi.Rank), func(*digest)) {
					return func(r *mpi.Rank) { sweep3d.Run(r, p) }, nil
				},
			})
		}
	}
	return sims
}

// halo is the LAMMPS membrane skeleton of Figure 3, the only workload with
// two ranks per node: shared-memory channel, the host compute/bus model,
// overlapped nonblocking exchange and allreduce.
func halo() []simSpec {
	p := lammps.Membrane(24)
	p.ThermoEvery = 8 // three allreduces within the 24 steps
	var sims []simSpec
	for _, net := range platform.Networks {
		for _, nodes := range []int{2, 4, 8} {
			for _, ppn := range []int{1, 2} {
				sims = append(sims, simSpec{
					key: fmt.Sprintf("halo/%s/n%dp%d", net.Short(), nodes, ppn),
					net: net, ranks: nodes * ppn, ppn: ppn,
					body: func() (func(*mpi.Rank), func(*digest)) {
						return func(r *mpi.Rank) { lammps.Run(r, p) }, nil
					},
				})
			}
		}
	}
	return sims
}

// beffIters is the number of Sendrecv calls per message size.
const beffIters = 2

// beffSizes is b_eff's geometric ladder: 21 sizes from 1 B to 1 MiB.
func beffSizes() []units.Bytes {
	sizes := make([]units.Bytes, 21)
	for i := range sizes {
		sizes[i] = units.Bytes(math.Round(math.Pow(float64(units.MiB), float64(i)/20)))
	}
	return sizes
}

// beff is b_eff (Figure 1d): every rank sends and receives at once in a
// ring, a stride ring and three seeded derangements, across the
// eager-to-rendezvous threshold. One simulation per pattern.
func beff(seed uint64) []simSpec {
	src := rng.New(seed)
	sizes := beffSizes()
	var sims []simSpec
	for _, ranks := range []int{8, 16, 32} {
		ring := make([]int, ranks)
		stride := make([]int, ranks)
		for i := range ring {
			ring[i] = (i + 1) % ranks
			stride[i] = (i + ranks/2) % ranks
		}
		pats := map[string][]int{"ring": ring, "stride": stride}
		names := []string{"ring", "stride"}
		for k := 0; k < 3; k++ {
			p := derangement(src, ranks)
			name := fmt.Sprintf("perm-%08x", patternHash(p))
			pats[name] = p
			names = append(names, name)
		}
		for _, net := range platform.Networks {
			for _, name := range names {
				pat := pats[name]
				sims = append(sims, simSpec{
					key: fmt.Sprintf("beff/%s/r%d/%s", net.Short(), ranks, name),
					net: net, ranks: ranks, ppn: 1,
					body: func() (func(*mpi.Rank), func(*digest)) { return beffProgram(pat, sizes) },
				})
			}
		}
	}
	return sims
}

// beffProgram runs every size of the ladder over one pattern; rank 0
// records the span of each size between two barriers.
func beffProgram(pat []int, sizes []units.Bytes) (func(*mpi.Rank), func(*digest)) {
	inv := make([]int, len(pat))
	for i, v := range pat {
		inv[v] = i
	}
	spans := make([]units.Duration, len(sizes))
	app := func(r *mpi.Rank) {
		to, from := pat[r.ID()], inv[r.ID()]
		for si, size := range sizes {
			r.Barrier()
			start := r.Now()
			for it := 0; it < beffIters; it++ {
				r.Sendrecv(to, si, size, from, si)
			}
			r.Barrier()
			if r.ID() == 0 {
				spans[si] = r.Now().Sub(start)
			}
		}
	}
	return app, func(d *digest) {
		for _, s := range spans {
			d.add(int64(s))
		}
	}
}

// derangement draws a permutation without fixed points, so no rank
// sends to itself.
func derangement(src *rng.Source, n int) []int {
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

func patternHash(p []int) uint32 {
	d := newDigest()
	for _, v := range p {
		d.add(int64(v))
	}
	return uint32(d.h.Sum64())
}

// Shape of one bulk simulation: streaming windows, then ping-pong.
const (
	bulkWindows    = 8
	bulkWindow     = 16
	bulkRoundTrips = 20
)

// bulkSeededBytes is the total of bulk's five seeded sizes. Bulk's host
// cost grows with the bytes moved, so fixing the total keeps the pass time
// the same across seeds while the sizes themselves vary.
const bulkSeededBytes = 5 * units.MiB

// bulkSizes returns 4 MiB plus five seeded sizes: one log-uniform draw
// from each fifth of the 64 KiB–4 MiB log range, all scaled by one factor
// so that they total bulkSeededBytes.
func bulkSizes(seed uint64) []units.Bytes {
	src := rng.New(seed)
	draws := make([]float64, 5)
	total := 0.0
	for k := range draws {
		draws[k] = math.Exp2(16 + 6*(float64(k)+src.Float64())/5)
		total += draws[k]
	}
	sizes := make([]units.Bytes, 0, 6)
	for _, d := range draws {
		sizes = append(sizes, units.Bytes(math.Round(d*float64(bulkSeededBytes)/total)))
	}
	return append(sizes, 4*units.MiB)
}

// bulk is Figure 1b/1c on two ranks: few, large messages, so the fabric
// chunk path, coalescing and IB rendezvous/registration carry the cost.
func bulk(seed uint64) []simSpec {
	var sims []simSpec
	for _, net := range platform.Networks {
		for _, size := range bulkSizes(seed) {
			sims = append(sims, simSpec{
				key: fmt.Sprintf("bulk/%s/s%d", net.Short(), size),
				net: net, ranks: 2, ppn: 1,
				body: func() (func(*mpi.Rank), func(*digest)) { return bulkProgram(size) },
			})
		}
	}
	return sims
}

// bulkProgram streams windows of nonblocking sends from rank 0 to rank 1,
// each closed by a zero-byte acknowledgement, then ping-pongs; rank 0
// records both spans.
func bulkProgram(size units.Bytes) (func(*mpi.Rank), func(*digest)) {
	var stream, pingpong units.Duration
	app := func(r *mpi.Rank) {
		start := r.Now()
		reqs := make([]*mpi.Request, bulkWindow)
		for w := 0; w < bulkWindows; w++ {
			for k := range reqs {
				if r.ID() == 0 {
					reqs[k] = r.Isend(1, 0, size)
				} else {
					reqs[k] = r.Irecv(0, 0)
				}
			}
			r.Waitall(reqs...)
			if r.ID() == 0 {
				r.Recv(1, 1)
			} else {
				r.Send(0, 1, 0)
			}
		}
		mid := r.Now()
		for it := 0; it < bulkRoundTrips; it++ {
			if r.ID() == 0 {
				r.Send(1, 2, size)
				r.Recv(1, 2)
			} else {
				r.Recv(0, 2)
				r.Send(0, 2, size)
			}
		}
		if r.ID() == 0 {
			stream, pingpong = mid.Sub(start), r.Now().Sub(mid)
		}
	}
	return app, func(d *digest) { d.add(int64(stream), int64(pingpong)) }
}

// digest hashes a simulation's results. It covers simulated times and the
// program's own outputs, never host measurements or the dispatched event
// count, so it is identical whenever the modelled behaviour is.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }
