// Package jacobi is a real distributed solver — not a communication
// skeleton. It solves a 1-D Poisson problem (-u” = f on [0,1], u(0) =
// u(1) = 0) by weighted-Jacobi iteration with the domain block-partitioned
// across ranks, exchanging REAL float64 halo values through the simulated
// MPI stack every sweep.
//
// Its purpose in this repository is validation: the three application
// benchmarks are calibrated skeletons, so this package proves that the
// same MPI layer (matching, ordering, eager and rendezvous paths, shm and
// network devices) transports actual numerical data correctly — the
// parallel solution must equal the serial one to machine precision,
// whichever interconnect carries it.
package jacobi

import (
	"fmt"
	"math"

	"repro/internal/mpi"
	"repro/internal/units"
)

// Problem defines the discretized Poisson problem.
type Problem struct {
	// N is the number of interior grid points.
	N int
	// Sweeps is the fixed number of Jacobi iterations (fixed rather than
	// tolerance-driven so every rank count does identical arithmetic).
	Sweeps int
	// Omega is the damping factor (2/3 is the classic smoother choice).
	Omega float64
	// CostPerPoint charges simulated CPU time per grid-point update, so
	// the run also produces meaningful timing, not just correct numbers.
	CostPerPoint units.Duration
}

// Default returns a well-conditioned test problem.
func Default(n, sweeps int) Problem {
	return Problem{N: n, Sweeps: sweeps, Omega: 2.0 / 3.0, CostPerPoint: 40 * units.Nanosecond}
}

// rhs is the manufactured forcing term: f(x) = pi^2 sin(pi x), whose exact
// solution is u(x) = sin(pi x).
func (p Problem) rhs(i int) float64 {
	x := float64(i+1) / float64(p.N+1)
	return math.Pi * math.Pi * math.Sin(math.Pi*x)
}

// Exact returns the analytic solution at interior point i.
func (p Problem) Exact(i int) float64 {
	x := float64(i+1) / float64(p.N+1)
	return math.Sin(math.Pi * x)
}

// SolveSerial runs the iteration on one address space (the reference).
func (p Problem) SolveSerial() []float64 {
	h2 := 1.0 / float64((p.N+1)*(p.N+1))
	u := make([]float64, p.N)
	next := make([]float64, p.N)
	for s := 0; s < p.Sweeps; s++ {
		for i := 0; i < p.N; i++ {
			left, right := 0.0, 0.0
			if i > 0 {
				left = u[i-1]
			}
			if i < p.N-1 {
				right = u[i+1]
			}
			gs := 0.5 * (left + right + h2*p.rhs(i))
			next[i] = u[i] + p.Omega*(gs-u[i])
		}
		u, next = next, u
	}
	return u
}

// partition returns rank r's [lo, hi) interior-point range.
func (p Problem) partition(rank, size int) (lo, hi int) {
	base := p.N / size
	extra := p.N % size
	lo = rank*base + min(rank, extra)
	hi = lo + base
	if rank < extra {
		hi++
	}
	return
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Tags for the halo exchange and the gather.
const (
	tagLeft = 400 + iota
	tagRight
	tagGatherResult
)

// Solve runs the distributed iteration on the calling rank and returns the
// full assembled solution on rank 0 (nil elsewhere). Every sweep exchanges
// one float64 with each neighbour — real data, real matching, real
// ordering — then updates the local block.
func Solve(r *mpi.Rank, p Problem) []float64 {
	size := r.Size()
	lo, hi := p.partition(r.ID(), size)
	n := hi - lo
	h2 := 1.0 / float64((p.N+1)*(p.N+1))

	u := make([]float64, n)
	next := make([]float64, n)
	leftNbr, rightNbr := r.ID()-1, r.ID()+1

	for s := 0; s < p.Sweeps; s++ {
		// Halo exchange: boundary values as real payloads. Each ghost
		// comes from its receive's Wait, which releases the request.
		var leftRecv, leftSend, rightRecv, rightSend *mpi.Request
		if leftNbr >= 0 && n > 0 {
			leftRecv = r.Irecv(leftNbr, tagRight)
			leftSend = r.IsendPayload(leftNbr, tagLeft, 8, u[0])
		}
		if rightNbr < size && n > 0 {
			rightRecv = r.Irecv(rightNbr, tagLeft)
			rightSend = r.IsendPayload(rightNbr, tagRight, 8, u[n-1])
		}
		leftGhost, rightGhost := 0.0, 0.0
		if leftRecv != nil {
			leftGhost = r.Wait(leftRecv).Payload.(float64)
			r.Wait(leftSend)
		}
		if rightRecv != nil {
			rightGhost = r.Wait(rightRecv).Payload.(float64)
			r.Wait(rightSend)
		}

		// Local update (charged as simulated compute time).
		r.Compute(units.Duration(n)*p.CostPerPoint, 0.3)
		for i := 0; i < n; i++ {
			left := leftGhost
			if i > 0 {
				left = u[i-1]
			}
			right := rightGhost
			if i < n-1 {
				right = u[i+1]
			}
			gi := lo + i
			if gi == 0 {
				left = 0
			}
			if gi == p.N-1 {
				right = 0
			}
			gs := 0.5 * (left + right + h2*p.rhs(gi))
			next[i] = u[i] + p.Omega*(gs-u[i])
		}
		u, next = next, u
	}

	// Gather the distributed solution onto rank 0 as real payloads.
	if r.ID() != 0 {
		block := make([]float64, n)
		copy(block, u)
		r.SendPayload(0, tagGatherResult, units.Bytes(8*n), block)
		return nil
	}
	out := make([]float64, p.N)
	copy(out[lo:hi], u)
	for src := 1; src < size; src++ {
		slo, shi := p.partition(src, size)
		st := r.Recv(src, tagGatherResult)
		block, ok := st.Payload.([]float64)
		if !ok || len(block) != shi-slo {
			panic(fmt.Sprintf("jacobi: bad gather payload from %d", src))
		}
		copy(out[slo:shi], block)
	}
	return out
}

// MaxAbsDiff reports the largest element-wise difference between two
// solutions.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
