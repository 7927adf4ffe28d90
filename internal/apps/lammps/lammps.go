// Package lammps is a communication-skeleton model of the LAMMPS classical
// molecular-dynamics code (Plimpton, J. Comp. Phys. 117, 1995) as used in
// the paper's Figures 2, 3, and 8: spatial decomposition over a 3D process
// grid, per-timestep halo exchanges in the three dimensions, periodic
// reneighboring, and thermodynamic reductions.
//
// Two scaled-speedup problem sets are modelled, matching Section 2.2.1:
//
//   - LJS: an atomic Lennard-Jones system. Moderate computation per
//     communication, bandwidth-sensitive halos, synchronous exchange
//     (communicate, then compute).
//   - Membrane: a biomembrane model with a much higher computation-to-
//     communication ratio whose exchange is structured to overlap with
//     computation (post receives and sends, compute the interior, then
//     wait and finish the boundary) — the structure the paper credits for
//     Elan-4's flat 1 PPN vs 2 PPN curves and InfiniBand's wide gap.
//
// Both are scaled studies: every rank owns the same number of atoms
// regardless of job size, so ideal execution time is flat in P.
package lammps

import (
	"math"

	"repro/internal/mpi"
	"repro/internal/units"
)

// Params defines a LAMMPS skeleton run.
type Params struct {
	// AtomsPerRank is the scaled-problem size (32k atoms per process for
	// the LJS example deck).
	AtomsPerRank int
	// Steps is the number of MD timesteps.
	Steps int
	// CostPerAtomStep is host time to compute one atom for one step.
	CostPerAtomStep units.Duration
	// BytesPerGhostAtom is the wire size of one exchanged ghost atom.
	BytesPerGhostAtom units.Bytes
	// GhostLayers scales how many surface layers are exchanged.
	GhostLayers float64
	// ReneighborEvery inserts a heavier exchange (atom migration +
	// neighbor-list rebuild) every so many steps.
	ReneighborEvery int
	// ThermoEvery inserts a small allreduce (energy/temperature) every so
	// many steps.
	ThermoEvery int
	// MemIntensity is the memory-bus sensitivity of the force computation
	// (see host.Node.Compute).
	MemIntensity float64
	// Overlap selects the membrane-style overlapped exchange; false gives
	// the LJS-style synchronous exchange.
	Overlap bool
	// InteriorFraction is the share of force work computable before ghost
	// data arrives (overlap mode only).
	InteriorFraction float64
	// ReverseFraction sizes the per-step reverse (force) communication as
	// a fraction of the forward halo. With Newton's third law enabled
	// LAMMPS returns ghost-atom forces every step; this exchange follows
	// the force computation and cannot overlap with it.
	ReverseFraction float64
}

// LJS returns the Lennard-Jones scaled problem of Figure 2.
func LJS(steps int) Params {
	return Params{
		AtomsPerRank:      32000,
		Steps:             steps,
		CostPerAtomStep:   650 * units.Nanosecond,
		BytesPerGhostAtom: 40,
		GhostLayers:       2.2,
		ReneighborEvery:   20,
		ThermoEvery:       100,
		MemIntensity:      0.55,
		Overlap:           false,
		ReverseFraction:   0.6,
	}
}

// Membrane returns the biomembrane scaled problem of Figure 3: roughly 4x
// the per-step computation of LJS per exchanged byte, overlapped
// communication, and a less bandwidth-bound force kernel.
func Membrane(steps int) Params {
	return Params{
		AtomsPerRank:      24000,
		Steps:             steps,
		CostPerAtomStep:   950 * units.Nanosecond,
		BytesPerGhostAtom: 56,
		GhostLayers:       4.0,
		ReneighborEvery:   20,
		ThermoEvery:       100,
		MemIntensity:      0.18,
		Overlap:           true,
		InteriorFraction:  0.85,
		ReverseFraction:   0.6,
	}
}

// Grid3D is a periodic 3D process grid.
type Grid3D struct {
	PX, PY, PZ int
}

// Factor3D factors p into the most cubic PX*PY*PZ = p.
func Factor3D(p int) Grid3D {
	best := Grid3D{p, 1, 1}
	bestScore := math.MaxFloat64
	for px := 1; px <= p; px++ {
		if p%px != 0 {
			continue
		}
		rem := p / px
		for py := 1; py <= rem; py++ {
			if rem%py != 0 {
				continue
			}
			pz := rem / py
			// Surface-to-volume score: lower is better.
			score := 1.0/float64(px) + 1.0/float64(py) + 1.0/float64(pz)
			if score < bestScore {
				bestScore = score
				best = Grid3D{px, py, pz}
			}
		}
	}
	return best
}

// Coords returns the grid coordinates of a rank (x fastest).
func (g Grid3D) Coords(rank int) (x, y, z int) {
	x = rank % g.PX
	y = (rank / g.PX) % g.PY
	z = rank / (g.PX * g.PY)
	return
}

// RankAt returns the rank at the given (periodic) coordinates.
func (g Grid3D) RankAt(x, y, z int) int {
	x = ((x % g.PX) + g.PX) % g.PX
	y = ((y % g.PY) + g.PY) % g.PY
	z = ((z % g.PZ) + g.PZ) % g.PZ
	return x + g.PX*(y+g.PY*z)
}

// Neighbors returns the six face neighbors (−x,+x,−y,+y,−z,+z).
func (g Grid3D) Neighbors(rank int) [6]int {
	x, y, z := g.Coords(rank)
	return [6]int{
		g.RankAt(x-1, y, z), g.RankAt(x+1, y, z),
		g.RankAt(x, y-1, z), g.RankAt(x, y+1, z),
		g.RankAt(x, y, z-1), g.RankAt(x, y, z+1),
	}
}

// haloBytes is the per-face exchange size: the ghost shell of a cubic
// subdomain of AtomsPerRank atoms.
func (p *Params) haloBytes() units.Bytes {
	faceAtoms := p.GhostLayers * math.Pow(float64(p.AtomsPerRank), 2.0/3.0)
	return units.Bytes(math.Round(faceAtoms)) * p.BytesPerGhostAtom
}

// stepCompute is the ideal per-step force+integrate time.
func (p *Params) stepCompute() units.Duration {
	return units.Duration(p.AtomsPerRank) * p.CostPerAtomStep
}

// Tags used by the skeleton.
const (
	tagHalo = 100 + iota
	tagReneighbor
	tagReverse = 120
)

// Run executes the skeleton on one rank. All ranks of the world must run
// it with identical Params.
func Run(r *mpi.Rank, p Params) {
	grid := Factor3D(r.Size())
	nbr := grid.Neighbors(r.ID())
	halo := p.haloBytes()
	work := p.stepCompute()

	for step := 1; step <= p.Steps; step++ {
		if p.Overlap {
			overlapStep(r, nbr, halo, work, p)
		} else {
			syncStep(r, nbr, halo, work, p)
		}
		if p.ReneighborEvery > 0 && step%p.ReneighborEvery == 0 {
			// Atom migration + list rebuild: a heavier staged exchange
			// plus extra host work.
			exchange(r, nbr, halo*3/2, tagReneighbor)
			r.Compute(work/4, p.MemIntensity)
		}
		if p.ThermoEvery > 0 && step%p.ThermoEvery == 0 {
			r.Allreduce(6 * 8) // six doubles of thermodynamic output
		}
	}
}

// syncStep is the LJS structure: staged halo exchange, compute, then the
// reverse force exchange.
func syncStep(r *mpi.Rank, nbr [6]int, halo units.Bytes, work units.Duration, p Params) {
	exchange(r, nbr, halo, tagHalo)
	r.Compute(work, p.MemIntensity)
	reverse(r, nbr, halo, p)
}

// reverse performs the post-compute force return; it is inherently
// synchronous (forces exist only after the computation).
func reverse(r *mpi.Rank, nbr [6]int, halo units.Bytes, p Params) {
	if p.ReverseFraction <= 0 {
		return
	}
	bytes := units.Bytes(float64(halo) * p.ReverseFraction)
	exchange(r, nbr, bytes, tagReverse)
}

// overlapStep is the membrane structure: post all transfers, compute the
// interior while they fly, then finish the boundary.
func overlapStep(r *mpi.Rank, nbr [6]int, halo units.Bytes, work units.Duration, p Params) {
	reqs := make([]*mpi.Request, 0, 12)
	for d := 0; d < 6; d++ {
		if nbr[d] == r.ID() {
			continue
		}
		reqs = append(reqs, r.Irecv(nbr[d], tagHalo+d))
	}
	for d := 0; d < 6; d++ {
		if nbr[d] == r.ID() {
			continue
		}
		// Send tagged with the opposite direction so it matches the
		// neighbour's receive for that face.
		reqs = append(reqs, r.Isend(nbr[d], tagHalo+opposite(d), halo))
	}
	interior := work.Scale(p.InteriorFraction)
	r.Compute(interior, p.MemIntensity)
	r.Waitall(reqs...)
	r.Compute(work-interior, p.MemIntensity)
	reverse(r, nbr, halo, p)
}

// exchange is the synchronous staged halo: one dimension at a time, both
// directions concurrently within the stage (LAMMPS' comm pattern).
func exchange(r *mpi.Rank, nbr [6]int, bytes units.Bytes, baseTag int) {
	for dim := 0; dim < 3; dim++ {
		lo, hi := nbr[2*dim], nbr[2*dim+1]
		if lo == r.ID() && hi == r.ID() {
			continue // periodic self-neighbour: local wrap, no message
		}
		reqs := [4]*mpi.Request{
			r.Irecv(lo, baseTag+2*dim),
			r.Irecv(hi, baseTag+2*dim+1),
			// Down direction matches the neighbour's "hi" receive and
			// vice versa.
			r.Isend(lo, baseTag+2*dim+1, bytes),
			r.Isend(hi, baseTag+2*dim, bytes),
		}
		r.Waitall(reqs[:]...)
	}
}

func opposite(d int) int {
	if d%2 == 0 {
		return d + 1
	}
	return d - 1
}
