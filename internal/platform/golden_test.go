package platform

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ib"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/mpi/mvib"
	"repro/internal/units"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_golden.json from the current registry snapshots")

// goldenRing passes eager and rendezvous messages around the ring. Each
// rank computes before posting its receive, so arrivals find no receive
// posted. The tag is the size in KiB, and the 96 KiB message goes twice in
// a row, so its second registrations hit the cache while the 320 KiB
// buffers evict.
func goldenRing(r *mpi.Rank) {
	n := r.Size()
	next, prev := (r.ID()+1)%n, (r.ID()+n-1)%n
	sizes := []units.Bytes{512, 8 * units.KiB, 96 * units.KiB, 96 * units.KiB, 320 * units.KiB}
	for lap := 0; lap < 2; lap++ {
		for _, size := range sizes {
			tag := int(size / units.KiB)
			req := r.Isend(next, tag, size)
			r.Compute(20*units.Microsecond, 0)
			r.Recv(prev, tag)
			r.Waitall(req)
		}
	}
	r.Allreduce(8)
}

// goldenCase is one registry of the golden file: the machines built on it,
// and how often each is run.
type goldenCase struct {
	name     string
	machines []goldenMachine
}

type goldenMachine struct {
	opts    Options
	app     func(*mpi.Rank)
	runs    int
	wantErr bool
}

// smallRegCache makes 320 KiB send and receive buffers evict each other.
func smallRegCache(hp *ib.Params, _ *mvib.Params) { hp.RegCacheCap = 512 * units.KiB }

func goldenCases() []goldenCase {
	storm := func(net Network, spec string) Options {
		return Options{Network: net, Ranks: 8, PPN: 1, Radix: 4, FaultSpec: spec, TuneIB: smallRegCache}
	}
	const lossy = "loss:all:p=0.001:for=300us;down:spine(1):at=30us:for=300us"
	return []goldenCase{
		// Faulted runs on both networks; the IB machine runs twice, so
		// every fold must add only what its layer counted since the last.
		{"ib-storm", []goldenMachine{{opts: storm(InfiniBand4X, lossy), app: goldenRing, runs: 2}}},
		{"elan-storm", []goldenMachine{{opts: storm(QuadricsElan4, lossy), app: goldenRing, runs: 1}}},
		// A link that never comes back exhausts the IB retry budget: the
		// run fails with a QP error and is still folded.
		{"ib-qp-error", []goldenMachine{{
			opts:    Options{Network: InfiniBand4X, Ranks: 2, PPN: 1, FaultSpec: "down:inj(1)"},
			app:     pingpong,
			runs:    1,
			wantErr: true,
		}}},
		// Machines built on a registry but never run list their counters
		// at zero.
		{"never-run", []goldenMachine{
			{opts: Options{Network: InfiniBand4X, Ranks: 4, PPN: 2}},
			{opts: Options{Network: QuadricsElan4, Ranks: 4, PPN: 2}},
		}},
	}
}

// TestMetricsSnapshotGolden pins every counter, gauge and histogram the
// layers fold into a registry: names, values, and which ones appear.
// Regenerate with `go test ./internal/platform -run MetricsSnapshotGolden
// -update` only for an intended change to what is measured.
func TestMetricsSnapshotGolden(t *testing.T) {
	got := map[string]metrics.Snapshot{}
	for _, c := range goldenCases() {
		reg := metrics.New()
		for _, gm := range c.machines {
			opts := gm.opts
			opts.Metrics = reg
			opts.Label = c.name
			m, err := New(opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for i := 0; i < gm.runs; i++ {
				if _, err := m.Run(gm.app); (err != nil) != gm.wantErr {
					t.Fatalf("%s run %d: err = %v, want error %v", c.name, i, err, gm.wantErr)
				}
			}
		}
		got[c.name] = reg.Snapshot()
	}
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	path := filepath.Join("testdata", "metrics_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(enc, want) {
		return
	}
	var wantSnaps map[string]metrics.Snapshot
	if err := json.Unmarshal(want, &wantSnaps); err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCases() {
		g, w := got[c.name], wantSnaps[c.name]
		diffCounters(t, c.name, g.Counters, w.Counters)
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if !bytes.Equal(gj, wj) {
			t.Errorf("%s: snapshot differs from %s", c.name, path)
		}
	}
}

// diffCounters names each counter whose value or presence differs.
func diffCounters(t *testing.T, name string, got, want []metrics.CounterPoint) {
	t.Helper()
	g := map[string]uint64{}
	for _, c := range got {
		g[c.Name] = c.Value
	}
	w := map[string]uint64{}
	for _, c := range want {
		w[c.Name] = c.Value
		if v, ok := g[c.Name]; !ok || v != c.Value {
			t.Errorf("%s: counter %s = %d (present %v), want %d", name, c.Name, v, ok, c.Value)
		}
	}
	for _, c := range got {
		if _, ok := w[c.Name]; !ok {
			t.Errorf("%s: unexpected counter %s = %d", name, c.Name, c.Value)
		}
	}
}
