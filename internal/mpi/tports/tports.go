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

	// Request names, rendered once per (rank, peer).
	sendNames, recvNames sim.PairNames
}

// New wraps an Elan network as an MPI transport.
func New(net *elan.Network) *Transport {
	return &Transport{net: net,
		sendNames: sim.PairNames{Prefix: "elan send ", Sep: "->"},
		recvNames: sim.PairNames{Prefix: "elan recv ", Sep: "<-"},
	}
}

// Name implements mpi.Transport.
func (t *Transport) Name() string { return "elan" }

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
	req := mpi.NewRequest(r.Engine(), t.sendNames.Name(r.ID(), dst), false)
	env := match.Envelope{Src: r.ID(), Tag: tag, Ctx: ctx}
	nic := t.net.NIC(r.NodeID())
	txDone := nic.TxPost(r.Proc(), r.ID(), dst, env, size, payload)
	txDone.OnFire(func() {
		req.Complete(r.ID(), tag, size, payload)
	})
	return req
}

// NetRecv implements mpi.Transport.
func (t *Transport) NetRecv(r *mpi.Rank, src, tag, ctx int, _ uint64) *mpi.Request {
	req := mpi.NewRequest(r.Engine(), t.recvNames.Name(r.ID(), src), true)
	env := match.Envelope{Src: src, Tag: tag, Ctx: ctx}
	if src == mpi.AnySource {
		env.Src = match.AnySource
	}
	if tag == mpi.AnyTag {
		env.Tag = match.AnyTag
	}
	nic := t.net.NIC(r.NodeID())
	recv := nic.RxPost(r.Proc(), r.ID(), env)
	recv.Done.OnFire(func() {
		req.Complete(recv.Src, recv.Tag, recv.Size, recv.Payload)
	})
	return req
}

// Progress implements mpi.Transport. Independent progress means there is no
// host-side protocol state to advance: the NIC has already done it.
func (t *Transport) Progress(r *mpi.Rank) {}
