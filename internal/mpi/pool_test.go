package mpi_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
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
// attached and returns the machine and its trace's sorted digest.
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
	return m, traceDigest(t, reg)
}

// traceDigest hashes the registry's Chrome trace events in sorted order,
// so it pins what the timeline holds and not the order it was recorded in.
func traceDigest(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := metrics.WriteChromeTrace(&buf, metrics.TraceSource{Reg: reg}); err != nil {
		t.Fatal(err)
	}
	var trace struct{ TraceEvents []json.RawMessage }
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	evs := make([]string, len(trace.TraceEvents))
	for i, ev := range trace.TraceEvents {
		evs[i] = string(ev)
	}
	sort.Strings(evs)
	sum := sha256.Sum256([]byte(strings.Join(evs, "\n")))
	return fmt.Sprintf("%d events %x", len(evs), sum[:8])
}

// TestTracedBlockingCallsDigest pins the timeline of blockingCalls.
func TestTracedBlockingCallsDigest(t *testing.T) {
	want := map[string]string{"IB": "196 events 66a68ea4056296d3", "Elan4": "148 events 4a0d1a5d636a3e62"}
	onBoth(t, func(t *testing.T, net platform.Network) {
		if _, digest := tracedRun(t, net); digest != want[net.Short()] {
			t.Errorf("sorted trace digest %s, want %s", digest, want[net.Short()])
		}
	})
}

// TestTracedRunRecyclesAsUntraced: a tracing registry changes nothing a
// rank does with its requests. Each request records its span when it
// completes, so a traced rank recycles exactly the requests the untraced
// one does, and those are some.
func TestTracedRunRecyclesAsUntraced(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		traced, _ := tracedRun(t, net)
		bare := build(t, net, 2, 1)
		if _, err := bare.Run(blockingCalls); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			got, want := traced.World.Rank(i).FreeRequests(), bare.World.Rank(i).FreeRequests()
			if got != want || want == 0 {
				t.Errorf("rank %d recycled %d requests traced and %d untraced, want equal and not 0", i, got, want)
			}
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
