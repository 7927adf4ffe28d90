package mpi_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
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

// nonblockingCalls exchanges eager and rendezvous messages with Irecv,
// Isend and Waitall.
func nonblockingCalls(r *mpi.Rank) {
	peer := 1 - r.ID()
	for _, size := range []units.Bytes{units.KiB, 64 * units.KiB} {
		r.Waitall(r.Irecv(peer, 3), r.Isend(peer, 3, size))
	}
}

// tracedRun runs app on two ranks with a tracing registry attached and
// returns the machine and its trace's sorted digest.
func tracedRun(t *testing.T, net platform.Network, app func(*mpi.Rank)) (*platform.Machine, string) {
	t.Helper()
	reg := metrics.New()
	reg.EnableTracing()
	m, err := platform.New(platform.Options{Network: net, Ranks: 2, PPN: 1, Metrics: reg, Label: "pool"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(app); err != nil {
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
		if _, digest := tracedRun(t, net, blockingCalls); digest != want[net.Short()] {
			t.Errorf("sorted trace digest %s, want %s", digest, want[net.Short()])
		}
	})
}

// TestTracedRunRecyclesAsUntraced: a tracing registry changes nothing a
// rank does with its requests. Each request records its span when it
// completes, so a traced rank recycles exactly the requests the untraced
// one does, and those are some: the blocking calls' and the ones Isend
// and Irecv hand out.
func TestTracedRunRecyclesAsUntraced(t *testing.T) {
	apps := []struct {
		name string
		run  func(*mpi.Rank)
	}{{"blocking", blockingCalls}, {"nonblocking", nonblockingCalls}}
	onBoth(t, func(t *testing.T, net platform.Network) {
		for _, app := range apps {
			traced, _ := tracedRun(t, net, app.run)
			bare := build(t, net, 2, 1)
			if _, err := bare.Run(app.run); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				got, want := traced.World.Rank(i).FreeRequests(), bare.World.Rank(i).FreeRequests()
				if got != want || want == 0 {
					t.Errorf("%s calls: rank %d recycled %d requests traced and %d untraced, want equal and not 0", app.name, i, got, want)
				}
			}
		}
	})
}

// TestNewRequestRendersNoName: a request keeps its name's parts, so with
// the rank's request pool warm, naming requests toward 1,000 distinct
// peers allocates nothing.
func TestNewRequestRendersNoName(t *testing.T) {
	m := build(t, platform.InfiniBand4X, 2, 1)
	var mallocs uint64
	_, err := m.Run(func(r *mpi.Rank) {
		if r.ID() != 0 {
			return
		}
		cycle := func(peer int) {
			req := r.NewRequest("ib send %d->%d", peer, false)
			req.Complete(peer, 0, 0, nil)
			r.Wait(req)
		}
		cycle(-1) // warms the pool
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for peer := 0; peer < 1000; peer++ {
			cycle(peer)
		}
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
	})
	if err != nil {
		t.Fatal(err)
	}
	if mallocs != 0 {
		t.Errorf("1,000 requests toward distinct peers made %d allocations, want 0", mallocs)
	}
}

// panicMessage runs f and returns the message it panicked with, or "".
func panicMessage(f func()) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	f()
	return ""
}

// TestReleasedRequestMisusePanics: once a Wait has returned a request,
// waiting on it again, testing it, or reading its status, completion or
// signal panics and names the type. Each panics on entry, before the call charges any time.
func TestReleasedRequestMisusePanics(t *testing.T) {
	m := build(t, platform.InfiniBand4X, 2, 1)
	msgs := map[string]string{}
	var charged units.Duration
	_, err := m.Run(func(r *mpi.Rank) {
		if r.ID() == 1 {
			r.Recv(0, 0)
			return
		}
		q := r.Isend(1, 0, 64)
		r.Wait(q)
		before := r.Now()
		msgs["Wait"] = panicMessage(func() { r.Wait(q) })
		msgs["Test"] = panicMessage(func() { r.Test(q) })
		msgs["Status"] = panicMessage(func() { q.Status() })
		msgs["Completed"] = panicMessage(func() { q.Completed() })
		msgs["Done"] = panicMessage(func() { q.Done() })
		charged = r.Now().Sub(before)
	})
	if err != nil {
		t.Fatal(err)
	}
	if charged != 0 {
		t.Errorf("the misused calls charged %v before panicking, want 0", charged)
	}
	for _, call := range []string{"Wait", "Test", "Status", "Completed", "Done"} {
		if !strings.Contains(msgs[call], "*mpi.Request continuation ran after release") {
			t.Errorf("%s after release: panic %q", call, msgs[call])
		}
	}
}
