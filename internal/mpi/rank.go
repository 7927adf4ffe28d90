package mpi

import (
	"fmt"
	"slices"

	"repro/internal/host"
	"repro/internal/match"
	"repro/internal/sim"
	"repro/internal/units"
)

// Rank is one MPI process. All communication methods must be called from
// the rank's own simulated process (inside the function passed to
// World.Run).
type Rank struct {
	world *World
	id    int
	eng   *sim.Engine
	node  *host.Node
	slot  int
	proc  *sim.Proc

	// incoming is kicked whenever the transport or the shm channel lands
	// something this rank might care about. Waiters capture its count
	// before progressing and wait with it, so a kick that lands while they
	// progress is not lost; they re-check conditions after waking
	// (level-triggered).
	incoming sim.Wakeup

	shm       shmState
	commWorld *Comm
	prof      profileState

	// freeReqs holds the requests the calls that reported them complete
	// have released.
	freeReqs sim.FreeList[Request]

	// Statistics.
	SendsPosted, RecvsPosted uint64
	BytesSent                units.Bytes
}

// ID reports the rank's index in the job.
func (r *Rank) ID() int { return r.id }

// Size reports the number of ranks in the job.
func (r *Rank) Size() int { return r.world.cfg.Ranks }

// Proc exposes the rank's simulated process (transport use).
func (r *Rank) Proc() *sim.Proc { return r.proc }

// NodeID reports the node index hosting this rank.
func (r *Rank) NodeID() int { return r.world.NodeOf(r.id) }

// Now reports the current simulated time (MPI_Wtime).
func (r *Rank) Now() units.Time { return r.eng.Now() }

// Incoming reports how many times the rank has been kicked (transport
// use): read it, check your condition, then pass what you read to
// WaitIncoming if the condition is not met.
func (r *Rank) Incoming() uint64 { return r.incoming.Count() }

// WaitIncoming blocks the rank until it is kicked after Incoming read seen
// (transport use). It returns at once if that has already happened.
func (r *Rank) WaitIncoming(seen uint64) { r.proc.WaitWakeup(&r.incoming, seen) }

// NewRequest returns a fresh request of this rank toward peer (transport
// use). Its name, for deadlock reports, is format with its first %d
// standing for the rank and its second for peer, as "ib send %d->%d"; it
// is rendered only when read.
func (r *Rank) NewRequest(format string, peer int, isRecv bool) *Request {
	q := r.freeReqs.Get()
	if q == nil {
		q = &Request{}
	}
	q.live.Acquire()
	r.eng.InitSignal(&q.done, format, r.id, peer)
	q.isRecv = isRecv
	return q
}

// Kick wakes the rank from a blocking MPI call to re-examine protocol
// state. Safe from any simulation context.
func (r *Rank) Kick() { r.incoming.Fire() }

// launch spawns the rank's process, running app and recording the rank's
// completion time.
func (r *Rank) launch(start units.Time, app func(*Rank), res *Result) {
	r.proc = r.eng.Spawn(fmt.Sprintf("rank%d", r.id), func(p *sim.Proc) {
		app(r)
		res.RankElapsed[r.id] = p.Now().Sub(start)
	})
}

// Compute advances the application by `work` of ideal CPU time with the
// given memory intensity (see host.Node.Compute). It makes no MPI progress
// — which is exactly the behaviour under study.
func (r *Rank) Compute(work units.Duration, memIntensity float64) {
	if r.world.trace != nil {
		r.world.record(r.id, EvComputeBegin, -1, 0, 0)
		defer r.world.record(r.id, EvComputeEnd, -1, 0, 0)
	}
	if tr := r.world.track; tr != nil {
		begin := r.eng.Now()
		defer func() {
			tr.Span(sim.TidRank+int64(r.id), "compute", "compute", begin, r.eng.Now())
		}()
	}
	r.node.Compute(r.proc, r.slot, work, memIntensity)
}

// traceReq gives the request a [posted, completed] span on this rank's
// timeline row: Complete records it, or traceReq does if the request has
// already completed. The world must have a track.
func (r *Rank) traceReq(req *Request, posted units.Time, name string) {
	span := &reqSpan{r, name, posted}
	if req.done.Fired() {
		span.record(req.done.FiredAt())
	} else {
		req.status.Payload = span
	}
}

// HostCopy charges an MPI-internal memory copy to this rank: CPU time now,
// plus cache-pollution debt against the application's next compute phase.
// Exported for transports that stage data through host buffers.
func (r *Rank) HostCopy(size units.Bytes) {
	cfg := &r.world.cfg
	r.proc.Sleep(cfg.CopyRate.TimeFor(size))
	r.ChargePollution(size)
}

// ChargePollution records cache-refill debt for host-side handling of one
// message of the given size.
func (r *Rank) ChargePollution(size units.Bytes) {
	cfg := &r.world.cfg
	debt := cfg.PollutionPerMsg + units.Duration(float64(cfg.PollutionPerKB)*float64(size)/1024)
	r.node.AddOverhead(r.slot, debt)
}

// bufKey derives a stable registration-cache key for the application
// buffer implied by a (direction, peer, tag, ctx) tuple. Real applications
// reuse the same buffers for the same logical communication, which is what
// makes pin-down caches effective; this models that reuse without tracking
// addresses.
func (r *Rank) bufKey(dir uint64, peer, tag, ctx int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range [...]uint64{uint64(r.id), dir, uint64(uint32(peer)), uint64(uint32(tag)), uint64(uint32(ctx))} {
		h ^= v
		h *= 1099511628211
	}
	return h
}

// Isend starts a nonblocking send of size bytes to dst with the given tag.
// The request completes when the application buffer is reusable.
func (r *Rank) Isend(dst, tag int, size units.Bytes) *Request {
	return r.isend(dst, tag, CtxPointToPoint, size, nil)
}

// IsendPayload is Isend carrying actual data, for integrity tests and
// data-bearing examples.
func (r *Rank) IsendPayload(dst, tag int, size units.Bytes, payload interface{}) *Request {
	return r.isend(dst, tag, CtxPointToPoint, size, payload)
}

func (r *Rank) isend(dst, tag, ctx int, size units.Bytes, payload interface{}) *Request {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	if tag < 0 {
		panic("mpi: send tag must be non-negative")
	}
	r.SendsPosted++
	r.BytesSent += size
	intra := r.world.NodeOf(dst) == r.NodeID()
	r.recordSend(size, intra)
	if r.world.trace != nil {
		r.world.record(r.id, EvSendPost, dst, tag, size)
	}
	posted := r.eng.Now()
	r.proc.Sleep(r.world.cfg.CallOverhead)
	var req *Request
	if intra {
		req = r.shmSend(dst, tag, ctx, size, payload)
	} else {
		key := r.bufKey(1, dst, tag, ctx)
		req = r.world.transport.NetSend(r, dst, tag, ctx, size, payload, key)
	}
	if r.world.track != nil {
		r.traceReq(req, posted, fmt.Sprintf("send->%d %v", dst, size))
	}
	return req
}

// Irecv posts a nonblocking receive matching (src, tag). src may be
// AnySource only in 1-process-per-node jobs.
func (r *Rank) Irecv(src, tag int) *Request {
	return r.irecv(src, tag, CtxPointToPoint)
}

func (r *Rank) irecv(src, tag, ctx int) *Request {
	if src != AnySource && (src < 0 || src >= r.Size()) {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", src))
	}
	r.RecvsPosted++
	if r.world.trace != nil {
		r.world.record(r.id, EvRecvPost, src, tag, 0)
	}
	posted := r.eng.Now()
	r.proc.Sleep(r.world.cfg.CallOverhead)
	var req *Request
	switch {
	case src == AnySource:
		if r.world.cfg.PPN > 1 {
			panic("mpi: AnySource requires 1 process per node (no cross-device wildcard matching)")
		}
		req = r.world.transport.NetRecv(r, src, tag, ctx, r.bufKey(2, src, tag, ctx))
	case r.world.NodeOf(src) == r.NodeID():
		req = r.shmRecv(src, tag, ctx)
	default:
		req = r.world.transport.NetRecv(r, src, tag, ctx, r.bufKey(2, src, tag, ctx))
	}
	if r.world.track != nil {
		r.traceReq(req, posted, fmt.Sprintf("recv<-%d", src))
	}
	return req
}

// Wait blocks until the request completes, making host-side progress while
// it waits (this is where an implementation without independent progress
// pays its dues: nothing advances unless some rank sits in a call like this
// one). It returns the request's status and releases the request, as
// MPI_Wait frees it.
func (r *Rank) Wait(req *Request) Status {
	req.live.Check(req)
	r.proc.Sleep(r.world.cfg.CallOverhead)
	start := r.eng.Now()
	for !req.Completed() {
		seen := r.incoming.Count()
		r.progress()
		if req.Completed() {
			break
		}
		r.proc.WaitWakeup(&r.incoming, seen, &req.done)
	}
	r.prof.mpiWait += r.eng.Now().Sub(start)
	return r.finish(req)
}

// finish is the request's one release point, reached from every call that
// reports it complete (Wait, Waitall, Waitany or Test). It records the
// request's done event, if traced, and returns the request to the pool
// with its status. By then the request has fired, so no waiter or
// callback refers to it, and its span, if traced, is recorded.
func (r *Rank) finish(req *Request) Status {
	if !req.done.Fired() || req.done.HasListeners() {
		panic("mpi: recycling a request that has not completed")
	}
	if r.world.trace != nil {
		kind := EvSendDone
		if req.isRecv {
			kind = EvRecvDone
		}
		r.world.record(r.id, kind, req.status.Src, req.status.Tag, req.status.Size)
	}
	st := req.status
	req.status = Status{}
	r.freeReqs.Put(req, &req.live)
	return st
}

// Waitall blocks until every request completes, waiting on each in turn,
// and sets each slot to nil once its Wait has released it (as MPI_Waitall
// sets it to MPI_REQUEST_NULL). It skips nil slots.
func (r *Rank) Waitall(reqs ...*Request) {
	for i, q := range reqs {
		if q == nil {
			continue
		}
		r.Wait(q)
		reqs[i] = nil
	}
}

// Test makes progress and reports whether the request has completed
// (MPI_Test). A request it reports complete is released; a caller that
// needs the status calls Wait instead.
func (r *Rank) Test(req *Request) bool {
	req.live.Check(req)
	r.proc.Sleep(r.world.cfg.CallOverhead)
	r.progress()
	if !req.Completed() {
		return false
	}
	r.finish(req)
	return true
}

// Waitany blocks until at least one request completes, releases it, sets
// its slot to nil and returns its index (MPI_Waitany). It skips nil slots,
// and returns -1 (MPI_UNDEFINED) at once when every slot is nil.
func (r *Rank) Waitany(reqs ...*Request) int {
	if !slices.ContainsFunc(reqs, func(q *Request) bool { return q != nil }) {
		return -1
	}
	r.proc.Sleep(r.world.cfg.CallOverhead)
	start := r.eng.Now()
	defer func() { r.prof.mpiWait += r.eng.Now().Sub(start) }()
	for {
		seen := r.incoming.Count()
		r.progress()
		for i, q := range reqs {
			if q != nil && q.Completed() {
				r.finish(q)
				reqs[i] = nil
				return i
			}
		}
		sigs := make([]*sim.Signal, 0, len(reqs))
		for _, q := range reqs {
			if q != nil {
				sigs = append(sigs, &q.done)
			}
		}
		r.proc.WaitWakeup(&r.incoming, seen, sigs...)
	}
}

// Send is a blocking send.
func (r *Rank) Send(dst, tag int, size units.Bytes) {
	r.Wait(r.Isend(dst, tag, size))
}

// SendPayload is a blocking send carrying data.
func (r *Rank) SendPayload(dst, tag int, size units.Bytes, payload interface{}) {
	r.Wait(r.IsendPayload(dst, tag, size, payload))
}

// Recv is a blocking receive.
func (r *Rank) Recv(src, tag int) Status {
	return r.Wait(r.Irecv(src, tag))
}

// Sendrecv exchanges messages with possibly different peers, as
// MPI_Sendrecv: both operations proceed concurrently, avoiding the
// head-to-head deadlock of blocking Send/Recv pairs.
func (r *Rank) Sendrecv(dst, sendTag int, size units.Bytes, src, recvTag int) Status {
	sreq := r.Isend(dst, sendTag, size)
	rreq := r.Irecv(src, recvTag)
	r.Wait(sreq)
	return r.Wait(rreq)
}

// progress drains the shared-memory channel and lets the transport advance
// its host-side protocol state.
func (r *Rank) progress() {
	r.shmProgress()
	r.world.transport.Progress(r)
}

// shmState is the intra-node channel endpoint of one rank.
type shmState struct {
	engine  match.Engine
	arrived []*shmMsg // arrived[head:] await matching
	head    int
}

// shmMsg is one message in flight on the shared-memory channel. It is
// pooled on the world and released once the receiving rank has copied it
// out (see shmComplete).
type shmMsg struct {
	live      sim.Live
	env       match.Envelope
	size      units.Bytes
	payload   interface{}
	dst       *Rank
	deliverFn func() // bound once
}

// shmSend copies the message into the shared segment and hands it to the
// destination rank, completing immediately (buffered semantics). The
// receiver pays the copy-out when it matches.
func (r *Rank) shmSend(dst, tag, ctx int, size units.Bytes, payload interface{}) *Request {
	req := r.NewRequest("shm send %d->%d", dst, false)
	r.HostCopy(size)
	msg := r.world.freeShm.Get()
	if msg == nil {
		msg = &shmMsg{}
		msg.deliverFn = msg.deliver
	}
	msg.live.Acquire()
	msg.env = match.Envelope{Src: r.id, Tag: tag, Ctx: ctx}
	msg.size, msg.payload, msg.dst = size, payload, r.world.ranks[dst]
	r.eng.After(r.world.cfg.ShmLatency, msg.deliverFn)
	req.Complete(dst, tag, size, payload)
	return req
}

// deliver lands the message on its destination's channel and wakes that
// rank.
func (msg *shmMsg) deliver() {
	msg.live.Check(msg)
	r := msg.dst
	r.shm.arrived = append(r.shm.arrived, msg)
	r.Kick()
}

// shmComplete copies a matched message out into req's buffer, completes
// req and releases the message: its one release point.
func (r *Rank) shmComplete(req *Request, msg *shmMsg) {
	r.HostCopy(msg.size)
	req.Complete(msg.env.Src, msg.env.Tag, msg.size, msg.payload)
	msg.payload, msg.dst = nil, nil
	r.world.freeShm.Put(msg, &msg.live)
}

// shmRecv posts an intra-node receive.
func (r *Rank) shmRecv(src, tag, ctx int) *Request {
	req := r.NewRequest("shm recv %d<-%d", src, true)
	r.shmProgress() // drain anything already arrived before posting
	env := match.Envelope{Src: src, Tag: tag, Ctx: ctx}
	if data, found, _ := r.shm.engine.PostRecv(env, req); found {
		r.shmComplete(req, data.(*shmMsg))
	}
	return req
}

// shmProgress matches newly arrived intra-node messages against posted
// receives, paying copy-out costs on this rank's CPU.
func (r *Rank) shmProgress() {
	sh := &r.shm
	for sh.head < len(sh.arrived) {
		msg := sh.arrived[sh.head]
		sh.arrived[sh.head] = nil
		if sh.head++; sh.head == len(sh.arrived) {
			sh.arrived, sh.head = sh.arrived[:0], 0 // drained: reuse the buffer
		}
		data, found, _ := r.shm.engine.Arrive(msg.env, msg)
		if !found {
			continue // parked in the unexpected queue inside the engine
		}
		r.shmComplete(data.(*Request), msg)
	}
}
