// Package tports is the Quadrics-style MPI transport: a thin shim over the
// Elan-4 Tports model (internal/elan), mirroring how Quadrics MPI layers
// MPICH's ADI over libelan.
//
// Its thinness is the point. Tag matching, unexpected buffering, rendezvous
// negotiation, and data movement all live on the NIC (internal/elan), so:
//
//   - Progress is independent of MPI calls: this transport's Progress is a
//     no-op because there is nothing for the host to advance.
//   - Send/receive posting costs only a descriptor write.
//   - There is no connection establishment and no memory registration.
package tports

import (
	"repro/internal/elan"
	"repro/internal/match"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/units"
)

// Transport implements mpi.Transport over an Elan network.
type Transport struct {
	net *elan.Network
	w   *mpi.World

	freeOps sim.FreeList[op]
}

// op is one send or receive in flight: the request it completes and the
// status it completes it with. A receive's status is the NIC's receive
// record, filled in at completion; a send's names its destination. An op is pooled on the transport; its
// continuation, doneFn, is bound once and is its one release point.
type op struct {
	t      *Transport
	live   sim.Live
	req    *mpi.Request
	rx     elan.Recv
	doneFn func()
}

func (t *Transport) newOp(req *mpi.Request) *op {
	o := t.freeOps.Get()
	if o == nil {
		o = &op{t: t}
		o.doneFn = o.done
	}
	o.live.Acquire()
	o.req = req
	return o
}

// done completes the request and releases the op.
func (o *op) done() {
	o.live.Check(o)
	o.req.Complete(o.rx.Src, o.rx.Tag, o.rx.Size, o.rx.Payload)
	o.req, o.rx = nil, elan.Recv{}
	o.t.freeOps.Put(o, &o.live)
}

// New wraps an Elan network as an MPI transport.
func New(net *elan.Network) *Transport {
	return &Transport{net: net}
}

// Network exposes the underlying Elan model (for statistics).
func (t *Transport) Network() *elan.Network { return t.net }

// Attach implements mpi.Transport: create each rank's Tports context on its
// node's NIC. Connectionless: nothing else to set up.
func (t *Transport) Attach(w *mpi.World) {
	t.w = w
	for i := 0; i < w.Size(); i++ {
		t.net.NIC(w.NodeOf(i)).AttachRank(i)
	}
}

// NetSend implements mpi.Transport. The buffer key is ignored: the Elan MMU
// needs no registration.
func (t *Transport) NetSend(r *mpi.Rank, dst, tag, ctx int, size units.Bytes, payload interface{}, _ uint64) *mpi.Request {
	req := r.NewRequest("elan send %d->%d", dst, false)
	env := match.Envelope{Src: r.ID(), Tag: tag, Ctx: ctx}
	o := t.newOp(req)
	o.rx.Src, o.rx.Tag, o.rx.Size, o.rx.Payload = dst, tag, size, payload
	nic := t.net.NIC(r.NodeID())
	nic.TxPostThen(r.Proc(), r.ID(), dst, env, size, payload, o.doneFn)
	return req
}

// NetRecv implements mpi.Transport.
func (t *Transport) NetRecv(r *mpi.Rank, src, tag, ctx int, _ uint64) *mpi.Request {
	req := r.NewRequest("elan recv %d<-%d", src, true)
	env := match.Envelope{Src: src, Tag: tag, Ctx: ctx}
	if src == mpi.AnySource {
		env.Src = match.AnySource
	}
	if tag == mpi.AnyTag {
		env.Tag = match.AnyTag
	}
	o := t.newOp(req)
	nic := t.net.NIC(r.NodeID())
	nic.RxPostThen(r.Proc(), r.ID(), env, &o.rx, o.doneFn)
	return req
}

// Progress implements mpi.Transport. Independent progress means there is no
// host-side protocol state to advance: the NIC has already done it.
func (t *Transport) Progress(r *mpi.Rank) {}
