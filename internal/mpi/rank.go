package mpi

import (
	"fmt"

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
	// something this rank might care about. It is replaced on every kick;
	// waiters capture it before progressing and re-check conditions after
	// waking (level-triggered).
	incoming *sim.Signal

	shm       shmState
	commWorld *Comm
	prof      profileState

	// Statistics.
	SendsPosted, RecvsPosted uint64
	BytesSent                units.Bytes
}

// ID reports the rank's index in the job.
func (r *Rank) ID() int { return r.id }

// Size reports the number of ranks in the job.
func (r *Rank) Size() int { return r.world.cfg.Ranks }

// World returns the owning job.
func (r *Rank) World() *World { return r.world }

// Proc exposes the rank's simulated process (transport use).
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Engine returns the simulation engine the rank runs on. Transports create
// this rank's signals and requests on it.
func (r *Rank) Engine() *sim.Engine { return r.eng }

// HostNode returns the node this rank runs on.
func (r *Rank) HostNode() *host.Node { return r.node }

// Slot reports the CPU slot this rank occupies on its node.
func (r *Rank) Slot() int { return r.slot }

// NodeID reports the node index hosting this rank.
func (r *Rank) NodeID() int { return r.world.NodeOf(r.id) }

// Now reports the current simulated time (MPI_Wtime).
func (r *Rank) Now() units.Time { return r.eng.Now() }

// Incoming returns the current wake-up signal (transport use): capture it,
// check your condition, then wait on it if the condition is not met.
func (r *Rank) Incoming() *sim.Signal { return r.incoming }

// Kick wakes the rank from a blocking MPI call to re-examine protocol
// state. Safe from any simulation context.
func (r *Rank) Kick() {
	old := r.incoming
	r.incoming = r.eng.NewSignal(fmt.Sprintf("rank%d incoming", r.id))
	old.Fire()
}

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

// traceReq records a [posted, completed] span for the request on this
// rank's timeline row. No-op when the world has no track.
func (r *Rank) traceReq(req *Request, posted units.Time, name string) {
	tr := r.world.track
	if tr == nil {
		return
	}
	tid := sim.TidRank + int64(r.id)
	if req.done.Fired() {
		tr.Span(tid, name, "mpi", posted, req.done.FiredAt())
		return
	}
	req.done.OnFire(func() { tr.Span(tid, name, "mpi", posted, req.done.FiredAt()) })
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
// one).
func (r *Rank) Wait(req *Request) Status {
	r.proc.Sleep(r.world.cfg.CallOverhead)
	start := r.eng.Now()
	for !req.Completed() {
		sig := r.incoming
		r.progress()
		if req.Completed() {
			break
		}
		r.proc.WaitAny(req.done, sig)
	}
	r.prof.mpiWait += r.eng.Now().Sub(start)
	if r.world.trace != nil {
		kind := EvSendDone
		if req.isRecv {
			kind = EvRecvDone
		}
		r.world.record(r.id, kind, req.status.Src, req.status.Tag, req.status.Size)
	}
	return req.status
}

// Waitall blocks until every request completes.
func (r *Rank) Waitall(reqs ...*Request) {
	for _, q := range reqs {
		r.Wait(q)
	}
}

// Test makes progress and reports whether the request has completed
// (MPI_Test).
func (r *Rank) Test(req *Request) bool {
	r.proc.Sleep(r.world.cfg.CallOverhead)
	r.progress()
	return req.Completed()
}

// Waitany blocks until at least one request completes and returns its
// index (MPI_Waitany). Completed requests passed in again return
// immediately.
func (r *Rank) Waitany(reqs ...*Request) int {
	if len(reqs) == 0 {
		panic("mpi: Waitany with no requests")
	}
	r.proc.Sleep(r.world.cfg.CallOverhead)
	start := r.eng.Now()
	defer func() { r.prof.mpiWait += r.eng.Now().Sub(start) }()
	for {
		sig := r.incoming
		r.progress()
		for i, q := range reqs {
			if q.Completed() {
				return i
			}
		}
		sigs := make([]*sim.Signal, 0, len(reqs)+1)
		for _, q := range reqs {
			sigs = append(sigs, q.done)
		}
		sigs = append(sigs, sig)
		r.proc.WaitAny(sigs...)
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
	arrived []*shmMsg
}

func (s *shmState) init() {}

type shmMsg struct {
	env     match.Envelope
	size    units.Bytes
	payload interface{}
}

// shmSend copies the message into the shared segment and hands it to the
// destination rank, completing immediately (buffered semantics). The
// receiver pays the copy-out when it matches.
func (r *Rank) shmSend(dst, tag, ctx int, size units.Bytes, payload interface{}) *Request {
	req := NewRequest(r.eng, fmt.Sprintf("shm send %d->%d", r.id, dst), false)
	r.HostCopy(size)
	msg := &shmMsg{env: match.Envelope{Src: r.id, Tag: tag, Ctx: ctx}, size: size, payload: payload}
	peer := r.world.ranks[dst]
	r.eng.After(r.world.cfg.ShmLatency, func() { peer.shmDeliver(msg) })
	req.Complete(r.id, tag, size, payload)
	return req
}

// shmDeliver lands an intra-node message on this rank's channel and wakes
// it.
func (r *Rank) shmDeliver(msg *shmMsg) {
	r.shm.arrived = append(r.shm.arrived, msg)
	r.Kick()
}

// shmRecv posts an intra-node receive.
func (r *Rank) shmRecv(src, tag, ctx int) *Request {
	req := NewRequest(r.eng, fmt.Sprintf("shm recv %d<-%d", r.id, src), true)
	r.shmProgress() // drain anything already arrived before posting
	env := match.Envelope{Src: src, Tag: tag, Ctx: ctx}
	if data, found, _ := r.shm.engine.PostRecv(env, req); found {
		msg := data.(*shmMsg)
		r.HostCopy(msg.size)
		req.Complete(msg.env.Src, msg.env.Tag, msg.size, msg.payload)
	}
	return req
}

// shmProgress matches newly arrived intra-node messages against posted
// receives, paying copy-out costs on this rank's CPU.
func (r *Rank) shmProgress() {
	for len(r.shm.arrived) > 0 {
		msg := r.shm.arrived[0]
		r.shm.arrived = r.shm.arrived[1:]
		data, found, _ := r.shm.engine.Arrive(msg.env, msg)
		if !found {
			continue // parked in the unexpected queue inside the engine
		}
		req := data.(*Request)
		r.HostCopy(msg.size)
		req.Complete(msg.env.Src, msg.env.Tag, msg.size, msg.payload)
	}
}
