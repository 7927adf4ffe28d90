// Package sweep3d is a communication-skeleton model of the Sweep3D
// benchmark (Koch, Baker, Alcouffe): a 1-group time-independent discrete
// ordinates (Sn) neutron transport solver on an IJK grid, parallelized with
// the Koch–Baker–Alcouffe (KBA) wavefront algorithm over a 2D process grid.
//
// Structure per iteration: for each of the 8 octants, sweeps advance in
// pipelined blocks of k-planes and angles; each rank receives boundary
// fluxes from its upstream I and J neighbours, computes its block, and
// forwards to downstream neighbours. The pipeline fill/drain plus per-block
// message latency is what limits fixed-problem scaling.
//
// The model reproduces two effects the paper depends on:
//
//   - Superlinear speedup from 1 to 4 processes (Section 4.2.2): the
//     per-rank working set of a sweep block shrinks with P, and a cache
//     model speeds up the per-cell grind as it begins to fit.
//   - The 25-process "anomaly" of the 150-cubed input: 150 divides evenly
//     by 5 (25 = 5x5 ranks) but not by 4 (16 ranks get 38/37 splits), so
//     16 ranks run imbalanced while 25 run perfectly balanced. Efficiency
//     normalized across those points jumps at 25 — mechanistically, not
//     mysteriously.
package sweep3d

import (
	"repro/internal/mpi"
	"repro/internal/units"
)

// Params defines a Sweep3D skeleton run.
type Params struct {
	// NX, NY, NZ is the global grid (150^3 for the paper's main input).
	NX, NY, NZ int
	// Iterations is the number of source-iteration passes.
	Iterations int
	// Angles is the number of discrete angles per octant.
	Angles int
	// MK is the k-plane blocking factor (pipeline granularity).
	MK int
	// MMI is the angle blocking factor.
	MMI int
	// GrindPerCell is the ideal time to compute one cell-angle.
	GrindPerCell units.Duration
	// BytesPerFlux is the wire size of one boundary flux value.
	BytesPerFlux units.Bytes
	// MemIntensity is the memory-bus sensitivity of the sweep kernel.
	MemIntensity float64
	// CachePenalty is the slowdown factor of a sweep whose working set
	// vastly exceeds cache (grind multiplier approaches 1+CachePenalty).
	CachePenalty float64
	// CacheBytes is the per-process cache capacity; zero disables the
	// cache model.
	CacheBytes units.Bytes
}

// Default returns the paper's fixed 150-cubed configuration.
func Default(n int) Params {
	return Params{
		NX: n, NY: n, NZ: n,
		Iterations:   6,
		Angles:       6,
		MK:           2,
		MMI:          2,
		GrindPerCell: 90 * units.Nanosecond,
		BytesPerFlux: 8,
		MemIntensity: 0.5,
		CachePenalty: 0.45,
		CacheBytes:   units.Bytes(1536 * units.KiB),
	}
}

// Grid2D is the PX x PY process grid of the KBA decomposition.
type Grid2D struct{ PX, PY int }

// Factor2D factors p into the most square PX*PY = p.
func Factor2D(p int) Grid2D {
	best := Grid2D{p, 1}
	for px := 1; px*px <= p; px++ {
		if p%px == 0 {
			best = Grid2D{p / px, px}
		}
	}
	return best
}

// Coords returns the grid coordinates of a rank.
func (g Grid2D) Coords(rank int) (x, y int) { return rank % g.PX, rank / g.PX }

// RankAt returns the rank at (x, y), or -1 outside the grid.
func (g Grid2D) RankAt(x, y int) int {
	if x < 0 || x >= g.PX || y < 0 || y >= g.PY {
		return -1
	}
	return x + g.PX*y
}

// blockSize splits n cells over parts and returns the extent of the given
// part (the first n%parts parts get the extra cell — the imbalance source).
func blockSize(n, parts, idx int) int {
	base := n / parts
	if idx < n%parts {
		return base + 1
	}
	return base
}

// grindMultiplier implements the cache-capacity model: the active working
// set of one pipeline block (local plane times k-block times angle block)
// determines how much of the sweep streams from memory.
func (p *Params) grindMultiplier(nxLocal, nyLocal int) float64 {
	if p.CacheBytes <= 0 {
		return 1
	}
	// Working set: the plane being swept plus its flux boundaries.
	ws := float64(nxLocal*nyLocal*p.MK*p.MMI) * 10 * 8 // ~10 doubles per cell-angle
	// Knee model: once the sweep block fits within roughly the cache (plus
	// the reuse the k/angle blocking already provides), the grind rate
	// saturates. For the 150-cubed input the knee falls between the 1- and
	// 4-process decompositions — exactly where the paper observes the
	// superlinear jump; beyond it, communication governs scaling.
	knee := 1.2 * float64(p.CacheBytes)
	if ws <= knee {
		return 1
	}
	return 1 + p.CachePenalty*(1-knee/ws)
}

// Run executes the skeleton on one rank.
func Run(r *mpi.Rank, p Params) {
	g := Factor2D(r.Size())
	x, y := g.Coords(r.ID())
	nxL := blockSize(p.NX, g.PX, x)
	nyL := blockSize(p.NY, g.PY, y)
	mult := p.grindMultiplier(nxL, nyL)

	kBlocks := (p.NZ + p.MK - 1) / p.MK
	aBlocks := (p.Angles + p.MMI - 1) / p.MMI

	// Time to sweep one (k-block x angle-block) through the local domain.
	cells := nxL * nyL * p.MK * p.MMI
	blockWork := (units.Duration(cells) * p.GrindPerCell).Scale(mult)

	// Boundary messages: fluxes on the faces of the block.
	iMsg := units.Bytes(nyL*p.MK*p.MMI) * p.BytesPerFlux
	jMsg := units.Bytes(nxL*p.MK*p.MMI) * p.BytesPerFlux

	for iter := 0; iter < p.Iterations; iter++ {
		for octant := 0; octant < 8; octant++ {
			// Sweep direction per octant.
			dirX, dirY := 1, 1
			if octant&1 != 0 {
				dirX = -1
			}
			if octant&2 != 0 {
				dirY = -1
			}
			upI := g.RankAt(x-dirX, y)
			dnI := g.RankAt(x+dirX, y)
			upJ := g.RankAt(x, y-dirY)
			dnJ := g.RankAt(x, y+dirY)

			for blk := 0; blk < kBlocks*aBlocks; blk++ {
				tag := 200 + octant // per-sender FIFO orders the blocks
				if upI >= 0 {
					r.Recv(upI, tag)
				}
				if upJ >= 0 {
					r.Recv(upJ, tag)
				}
				r.Compute(blockWork, p.MemIntensity)
				if dnI >= 0 {
					r.Send(dnI, tag, iMsg)
				}
				if dnJ >= 0 {
					r.Send(dnJ, tag, jMsg)
				}
			}
		}
		// Convergence test: global flux error reduction.
		r.Allreduce(8)
	}
}

// GrindTime converts a measured run time to the benchmark's reported
// per-cell grind time (ns per cell-angle-iteration), the metric of Figure
// 4(a).
func (p *Params) GrindTime(elapsed units.Duration, ranks int) float64 {
	work := float64(p.NX) * float64(p.NY) * float64(p.NZ) * float64(p.Angles*8) * float64(p.Iterations)
	return elapsed.Nanoseconds() * float64(ranks) / work
}

// WorkingSetMiB reports the per-rank block working set, for diagnostics.
func (p *Params) WorkingSetMiB(ranks int) float64 {
	g := Factor2D(ranks)
	nx := blockSize(p.NX, g.PX, 0)
	ny := blockSize(p.NY, g.PY, 0)
	return float64(nx*ny*p.MK*p.MMI) * 80 / float64(1<<20)
}
