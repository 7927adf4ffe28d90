package mpi

import "repro/internal/units"

// Collective algorithms, implemented over the point-to-point layer the way
// MPICH-family implementations of the paper's era did: dissemination
// barrier, binomial broadcast/reduce, recursive-doubling allreduce, ring
// allgather, pairwise alltoall, recursive-halving reduce-scatter, and a
// linear scan. All collective traffic uses the owning communicator's
// collective context, so it can never match user point-to-point receives.
//
// Every collective exists in two forms: a method on *Comm (operating on
// communicator ranks) and a convenience method on *Rank that delegates to
// the world communicator.

// Collective operation tags. Within one operation, per-(src,ctx) FIFO
// matching disambiguates rounds; across back-to-back operations of the same
// kind, MPI's non-overtaking rule does (the transports preserve per-sender
// order).
const (
	tagBarrier = 1 + iota
	tagBcast
	tagReduce
	tagAllreduce
	tagAllgather
	tagAlltoall
	tagGather
	tagScatter
	tagReduceScatter
	tagScan
)

func (c *Comm) collSend(dst, tag int, size units.Bytes) *Request {
	return c.owner.isend(c.WorldRank(dst), tag, c.collCtx(), size, nil)
}

func (c *Comm) collRecv(src, tag int) *Request {
	return c.owner.irecv(c.WorldRank(src), tag, c.collCtx())
}

// reduceLocal charges the cost of combining size bytes of operands.
func (c *Comm) reduceLocal(size units.Bytes) {
	r := c.owner
	r.proc.Sleep(r.world.cfg.ReduceRate.TimeFor(size))
}

// Barrier blocks until all members have entered it (dissemination
// algorithm: ceil(log2 P) rounds of pairwise 0-byte exchanges).
func (c *Comm) Barrier() {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.myRank
	for k := 1; k < p; k <<= 1 {
		dst := (me + k) % p
		src := (me - k + p) % p
		sreq := c.collSend(dst, tagBarrier, 0)
		rreq := c.collRecv(src, tagBarrier)
		c.owner.Wait(sreq)
		c.owner.Wait(rreq)
	}
}

// Bcast distributes size bytes from root to all members (binomial tree).
func (c *Comm) Bcast(root int, size units.Bytes) {
	p := c.Size()
	if p == 1 {
		return
	}
	vr := (c.myRank - root + p) % p
	abs := func(v int) int { return (v + root) % p }

	mask := 1
	for mask < p {
		if vr&mask != 0 {
			c.owner.Wait(c.collRecv(abs(vr-mask), tagBcast))
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < p {
			c.owner.Wait(c.collSend(abs(vr+mask), tagBcast, size))
		}
		mask >>= 1
	}
}

// Reduce combines size bytes from every member onto root (binomial tree).
func (c *Comm) Reduce(root int, size units.Bytes) {
	p := c.Size()
	if p == 1 {
		return
	}
	vr := (c.myRank - root + p) % p
	abs := func(v int) int { return (v + root) % p }

	mask := 1
	for mask < p {
		if vr&mask == 0 {
			src := vr | mask
			if src < p {
				c.owner.Wait(c.collRecv(abs(src), tagReduce))
				c.reduceLocal(size)
			}
		} else {
			c.owner.Wait(c.collSend(abs(vr&^mask), tagReduce, size))
			break
		}
		mask <<= 1
	}
}

// Allreduce combines size bytes across all members and leaves the result
// everywhere. Power-of-two sizes use recursive doubling; others fall back
// to reduce + broadcast.
func (c *Comm) Allreduce(size units.Bytes) {
	p := c.Size()
	if p == 1 {
		return
	}
	if p&(p-1) != 0 {
		c.Reduce(0, size)
		c.Bcast(0, size)
		return
	}
	me := c.myRank
	for mask := 1; mask < p; mask <<= 1 {
		peer := me ^ mask
		sreq := c.collSend(peer, tagAllreduce, size)
		rreq := c.collRecv(peer, tagAllreduce)
		c.owner.Wait(sreq)
		c.owner.Wait(rreq)
		c.reduceLocal(size)
	}
}

// Allgather shares size bytes per member with everyone (ring algorithm:
// P-1 steps forwarding the accumulating blocks).
func (c *Comm) Allgather(size units.Bytes) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.myRank
	next := (me + 1) % p
	prev := (me - 1 + p) % p
	for step := 0; step < p-1; step++ {
		sreq := c.collSend(next, tagAllgather, size)
		rreq := c.collRecv(prev, tagAllgather)
		c.owner.Wait(sreq)
		c.owner.Wait(rreq)
	}
}

// Alltoall exchanges a distinct size-byte block with every other member
// (pairwise exchange: XOR schedule for power-of-two, rotation otherwise).
func (c *Comm) Alltoall(size units.Bytes) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.myRank
	pow2 := p&(p-1) == 0
	for step := 1; step < p; step++ {
		var sendTo, recvFrom int
		if pow2 {
			sendTo = me ^ step
			recvFrom = sendTo
		} else {
			sendTo = (me + step) % p
			recvFrom = (me - step + p) % p
		}
		sreq := c.collSend(sendTo, tagAlltoall, size)
		rreq := c.collRecv(recvFrom, tagAlltoall)
		c.owner.Wait(sreq)
		c.owner.Wait(rreq)
	}
}

// Gather collects size bytes from every member onto root (linear).
func (c *Comm) Gather(root int, size units.Bytes) {
	p := c.Size()
	if p == 1 {
		return
	}
	if c.myRank == root {
		reqs := make([]*Request, 0, p-1)
		for src := 0; src < p; src++ {
			if src != root {
				reqs = append(reqs, c.collRecv(src, tagGather))
			}
		}
		for _, q := range reqs {
			c.owner.Wait(q)
		}
		return
	}
	c.owner.Wait(c.collSend(root, tagGather, size))
}

// Scatter distributes a distinct size-byte block from root to every member
// (linear).
func (c *Comm) Scatter(root int, size units.Bytes) {
	p := c.Size()
	if p == 1 {
		return
	}
	if c.myRank == root {
		reqs := make([]*Request, 0, p-1)
		for dst := 0; dst < p; dst++ {
			if dst != root {
				reqs = append(reqs, c.collSend(dst, tagScatter, size))
			}
		}
		for _, q := range reqs {
			c.owner.Wait(q)
		}
		return
	}
	c.owner.Wait(c.collRecv(root, tagScatter))
}

// ReduceScatter combines P blocks of size bytes each and leaves one reduced
// block per member (recursive halving for power-of-two member counts,
// reduce+scatter otherwise). size is the per-member result block.
func (c *Comm) ReduceScatter(size units.Bytes) {
	p := c.Size()
	if p == 1 {
		return
	}
	if p&(p-1) != 0 {
		c.Reduce(0, size*units.Bytes(p))
		c.Scatter(0, size)
		return
	}
	me := c.myRank
	// Recursive halving: exchange and reduce half the remaining data each
	// round.
	chunk := size * units.Bytes(p) / 2
	for mask := p / 2; mask > 0; mask /= 2 {
		peer := me ^ mask
		sreq := c.collSend(peer, tagReduceScatter, chunk)
		rreq := c.collRecv(peer, tagReduceScatter)
		c.owner.Wait(sreq)
		c.owner.Wait(rreq)
		c.reduceLocal(chunk)
		if chunk > size {
			chunk /= 2
		}
	}
}

// Scan computes an inclusive prefix reduction: member i receives the
// combination of blocks 0..i (linear pipeline, as small-cluster MPICH
// did).
func (c *Comm) Scan(size units.Bytes) {
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.myRank
	if me > 0 {
		c.owner.Wait(c.collRecv(me-1, tagScan))
		c.reduceLocal(size)
	}
	if me < p-1 {
		c.owner.Wait(c.collSend(me+1, tagScan, size))
	}
}

// World-communicator conveniences on Rank.

// Barrier blocks until all ranks have entered it.
func (r *Rank) Barrier() { r.CommWorld().Barrier() }

// Bcast distributes size bytes from root to all ranks.
func (r *Rank) Bcast(root int, size units.Bytes) { r.CommWorld().Bcast(root, size) }

// Reduce combines size bytes from every rank onto root.
func (r *Rank) Reduce(root int, size units.Bytes) { r.CommWorld().Reduce(root, size) }

// Allreduce combines size bytes across all ranks, result everywhere.
func (r *Rank) Allreduce(size units.Bytes) { r.CommWorld().Allreduce(size) }

// Allgather shares size bytes per rank with everyone.
func (r *Rank) Allgather(size units.Bytes) { r.CommWorld().Allgather(size) }

// Alltoall exchanges a distinct size-byte block between every rank pair.
func (r *Rank) Alltoall(size units.Bytes) { r.CommWorld().Alltoall(size) }

// Gather collects size bytes from every rank onto root.
func (r *Rank) Gather(root int, size units.Bytes) { r.CommWorld().Gather(root, size) }

// Scatter distributes a distinct size-byte block from root to every rank.
func (r *Rank) Scatter(root int, size units.Bytes) { r.CommWorld().Scatter(root, size) }

// ReduceScatter combines and scatters one block per rank.
func (r *Rank) ReduceScatter(size units.Bytes) { r.CommWorld().ReduceScatter(size) }

// Scan computes an inclusive prefix reduction across ranks.
func (r *Rank) Scan(size units.Bytes) { r.CommWorld().Scan(size) }
