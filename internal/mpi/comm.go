package mpi

import (
	"fmt"
	"sort"

	"repro/internal/units"
)

// Comm is a communicator: an ordered group of world ranks with private
// matching contexts, as in MPI. Point-to-point traffic and collective
// traffic on a communicator use separate contexts, so a communicator's
// collectives can never match its user receives, and two communicators
// never match each other.
//
// Comm values are per-process views (like MPI_Comm handles): each member
// holds its own Comm with its own local rank.
type Comm struct {
	owner      *Rank
	members    []int // world ranks, position = comm rank
	myRank     int   // position of owner in members
	ctx        int   // even: point-to-point context; odd ctx+1: collectives
	splitCount int   // per-member count of Split calls on this comm
}

// CommWorld returns this process's view of the all-ranks communicator.
// Every view shares one read-only identity table, built on first use.
func (r *Rank) CommWorld() *Comm {
	if r.commWorld == nil {
		w := r.world
		if w.worldMembers == nil {
			w.worldMembers = make([]int, r.Size())
			for i := range w.worldMembers {
				w.worldMembers[i] = i
			}
		}
		r.commWorld = &Comm{owner: r, members: w.worldMembers, myRank: r.id, ctx: CtxPointToPoint}
	}
	return r.commWorld
}

// Rank reports the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size reports the number of members.
func (c *Comm) Size() int { return len(c.members) }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(commRank int) int {
	if commRank < 0 || commRank >= len(c.members) {
		panic(fmt.Sprintf("mpi: comm rank %d out of range [0,%d)", commRank, len(c.members)))
	}
	return c.members[commRank]
}

// pointCtx and collCtx are the communicator's two matching contexts.
func (c *Comm) pointCtx() int { return c.ctx }
func (c *Comm) collCtx() int {
	if c.ctx == CtxPointToPoint {
		return CtxCollective // the world communicator keeps the legacy layout
	}
	return c.ctx + 1
}

// Isend starts a nonblocking send to a communicator rank.
func (c *Comm) Isend(dst, tag int, size units.Bytes) *Request {
	return c.owner.isend(c.WorldRank(dst), tag, c.pointCtx(), size, nil)
}

// IsendPayload is Isend carrying data.
func (c *Comm) IsendPayload(dst, tag int, size units.Bytes, payload interface{}) *Request {
	return c.owner.isend(c.WorldRank(dst), tag, c.pointCtx(), size, payload)
}

// Irecv posts a nonblocking receive from a communicator rank (or
// AnySource).
func (c *Comm) Irecv(src, tag int) *Request {
	if src == AnySource {
		return c.owner.irecv(AnySource, tag, c.pointCtx())
	}
	return c.owner.irecv(c.WorldRank(src), tag, c.pointCtx())
}

// Send is a blocking send to a communicator rank.
func (c *Comm) Send(dst, tag int, size units.Bytes) {
	c.owner.Wait(c.Isend(dst, tag, size))
}

// Recv is a blocking receive; the returned Status.Src is a communicator
// rank.
func (c *Comm) Recv(src, tag int) Status {
	st := c.owner.Wait(c.Irecv(src, tag))
	st.Src = c.commRankOf(st.Src)
	return st
}

// Sendrecv exchanges messages with communicator-rank peers.
func (c *Comm) Sendrecv(dst, sendTag int, size units.Bytes, src, recvTag int) Status {
	sreq := c.Isend(dst, sendTag, size)
	rreq := c.Irecv(src, recvTag)
	c.owner.Wait(sreq)
	st := c.owner.Wait(rreq)
	st.Src = c.commRankOf(st.Src)
	return st
}

// commRankOf translates a world rank back into this communicator.
func (c *Comm) commRankOf(worldRank int) int {
	for i, m := range c.members {
		if m == worldRank {
			return i
		}
	}
	return -1
}

// splitKey identifies one collective Split call across its participants.
type splitKey struct {
	ctx int
	seq int
}

type splitEntry struct {
	color, key, worldRank int
}

// Split partitions the communicator by color, ordering each new group by
// (key, old rank), as MPI_Comm_split. Every member must call it
// (collectively). A negative color opts out and returns nil.
//
// Coordination is paid for honestly: members allgather their (color, key)
// before any group can form. Context ids for the new communicators are
// drawn from a world-level allocator keyed by the split instance, so every
// member derives the same context without further communication (the
// allgather already synchronized them).
func (c *Comm) Split(color, key int) *Comm {
	r := c.owner
	w := r.world
	k := splitKey{ctx: c.ctx, seq: c.splitCount}
	c.splitCount++

	st := w.splitFor(k)
	st.entries = append(st.entries, splitEntry{color: color, key: key, worldRank: r.id})
	// The allgather both exchanges the (color,key) data and acts as the
	// synchronization barrier: when it completes, every member has
	// deposited its entry.
	c.Allgather(8)

	if color < 0 {
		return nil
	}
	group := make([]splitEntry, 0, len(st.entries))
	for _, e := range st.entries {
		if e.color == color {
			group = append(group, e)
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].worldRank < group[j].worldRank
	})
	members := make([]int, len(group))
	my := -1
	for i, e := range group {
		members[i] = e.worldRank
		if e.worldRank == r.id {
			my = i
		}
	}
	return &Comm{
		owner:   r,
		members: members,
		myRank:  my,
		ctx:     w.ctxFor(k, color),
	}
}

// splitState accumulates one Split instance's entries.
type splitState struct {
	entries []splitEntry
}

// splitFor returns (creating if needed) the shared state of a split
// instance.
func (w *World) splitFor(k splitKey) *splitState {
	if w.splits == nil {
		w.splits = map[splitKey]*splitState{}
	}
	st := w.splits[k]
	if st == nil {
		st = &splitState{}
		w.splits[k] = st
	}
	return st
}

// ctxFor hands out a stable, unique even context id per (split instance,
// color). Context ids participate only in matching equality — every
// member of one new communicator gets the same id via the memoized map, and
// distinct communicators get distinct ids, which is all matching observes.
func (w *World) ctxFor(k splitKey, color int) int {
	if w.ctxAlloc == nil {
		w.ctxAlloc = map[ctxKey]int{}
		w.nextCtx = 4 // 0/1 world p2p+coll; leave 2-3 reserved
	}
	ck := ctxKey{k, color}
	if ctx, ok := w.ctxAlloc[ck]; ok {
		return ctx
	}
	ctx := w.nextCtx
	w.nextCtx += 2
	w.ctxAlloc[ck] = ctx
	return ctx
}

type ctxKey struct {
	split splitKey
	color int
}
