package mpi_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/units"
)

// blockingCalls makes every blocking call that creates requests: eager and
// rendezvous Send and Recv, Sendrecv, Barrier and Allreduce.
func blockingCalls(r *mpi.Rank) {
	peer := 1 - r.ID()
	for _, size := range []units.Bytes{units.KiB, 64 * units.KiB} {
		if r.ID() == 0 {
			r.Send(peer, 1, size)
			r.Recv(peer, 1)
		} else {
			r.Recv(peer, 1)
			r.Send(peer, 1, size)
		}
		r.Sendrecv(peer, 2, size, peer, 2)
	}
	r.Barrier()
	r.Allreduce(8)
}

// tracedRun runs blockingCalls on two ranks with a tracing registry
// attached and returns the machine and a digest of its Chrome trace.
func tracedRun(t *testing.T, net platform.Network) (*platform.Machine, string) {
	t.Helper()
	reg := metrics.New()
	reg.EnableTracing()
	m, err := platform.New(platform.Options{Network: net, Ranks: 2, PPN: 1, Metrics: reg, Label: "pool"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(blockingCalls); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := metrics.WriteChromeTrace(&buf, metrics.TraceSource{Reg: reg}); err != nil {
		t.Fatal(err)
	}
	return m, fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))[:16]
}

// TestTracedRunRecyclesNoRequest: with a tracing registry attached a rank
// recycles no request, since a request's span callback may still be
// queued when its blocking call returns, and the trace is the one the
// tree recorded before requests were pooled (the digests below). The same
// run untraced does recycle, so the count is a real observation.
func TestTracedRunRecyclesNoRequest(t *testing.T) {
	want := map[string]string{"IB": "d644764ad938c511", "Elan4": "42a4e3ec825f2cf2"}
	onBoth(t, func(t *testing.T, net platform.Network) {
		m, digest := tracedRun(t, net)
		for i := 0; i < 2; i++ {
			if n := m.World.Rank(i).FreeRequests(); n != 0 {
				t.Errorf("traced run: rank %d recycled %d requests, want 0", i, n)
			}
		}
		if digest != want[net.Short()] {
			t.Errorf("trace digest %s, want %s", digest, want[net.Short()])
		}
		bare := build(t, net, 2, 1)
		if _, err := bare.Run(blockingCalls); err != nil {
			t.Fatal(err)
		}
		if bare.World.Rank(0).FreeRequests()+bare.World.Rank(1).FreeRequests() == 0 {
			t.Error("untraced run recycled no request")
		}
	})
}

// TestRequestDoubleReleasePanics: returning a blocking call's request a
// second time panics and names the type.
func TestRequestDoubleReleasePanics(t *testing.T) {
	m := build(t, platform.InfiniBand4X, 2, 1)
	var msg string
	_, err := m.Run(func(r *mpi.Rank) {
		if r.ID() == 1 {
			r.Recv(0, 0)
			return
		}
		q := r.Isend(1, 0, 64)
		r.WaitFree(q)
		defer func() { msg, _ = recover().(string) }()
		r.WaitFree(q)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "*mpi.Request released twice") {
		t.Fatalf("second release: panic %q", msg)
	}
}
