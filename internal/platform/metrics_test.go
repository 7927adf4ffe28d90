package platform

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/units"
)

// pingpong is a small cross-node exchange touching every instrumented layer:
// MPI send/recv, transport eager+rendezvous paths, and the fabric.
func pingpong(r *mpi.Rank) {
	const tag = 7
	sizes := []units.Bytes{128, 256 * units.KiB}
	for _, sz := range sizes {
		if r.ID() == 0 {
			r.Send(1, tag, sz)
			r.Recv(1, tag)
		} else {
			r.Recv(0, tag)
			r.Send(0, tag, sz)
		}
	}
}

func runPingpong(t *testing.T, net Network, reg *metrics.Registry) *mpi.Result {
	t.Helper()
	return runObserved(t, net, 2, 1, reg, pingpong)
}

func runObserved(t *testing.T, net Network, ranks, ppn int, reg *metrics.Registry, app func(*mpi.Rank)) *mpi.Result {
	t.Helper()
	m, err := New(Options{Network: net, Ranks: ranks, PPN: ppn, Metrics: reg, Label: "test"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireUnperturbed runs app on the same machine without and with an
// attached, tracing registry, and requires identical simulated timing.
func requireUnperturbed(t *testing.T, net Network, ranks, ppn int, app func(*mpi.Rank)) {
	t.Helper()
	bare := runObserved(t, net, ranks, ppn, nil, app)
	reg := metrics.New()
	reg.EnableTracing()
	observed := runObserved(t, net, ranks, ppn, reg, app)
	if bare.Elapsed != observed.Elapsed {
		t.Errorf("%v %d/%d: elapsed %v without metrics, %v with",
			net, ranks, ppn, bare.Elapsed, observed.Elapsed)
	}
	for i := range bare.RankElapsed {
		if bare.RankElapsed[i] != observed.RankElapsed[i] {
			t.Errorf("%v %d/%d: rank %d elapsed differs: %v vs %v",
				net, ranks, ppn, i, bare.RankElapsed[i], observed.RankElapsed[i])
		}
	}
}

// TestMetricsDoNotPerturbSimulation: the observed run must produce exactly
// the same simulated result as the unobserved run — metrics record behaviour,
// they never alter it.
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	for _, net := range Networks {
		requireUnperturbed(t, net, 2, 1, pingpong)
	}
}

// TestMetricsWiredThroughLayers: one observed run populates the counters of
// every layer, and tracing records timeline events.
func TestMetricsWiredThroughLayers(t *testing.T) {
	common := []string{"sim.events_dispatched", "sim.procs_spawned", "fabric.messages", "fabric.bytes"}
	perNet := map[Network][]string{
		InfiniBand4X:  {"ib.rdma_posts", "ib.deliveries", "mvib.eager_sends", "mvib.rndv_sends"},
		QuadricsElan4: {"elan.tx_posts", "elan.rx_posts"},
	}
	for _, net := range Networks {
		reg := metrics.New()
		reg.EnableTracing()
		runPingpong(t, net, reg)
		for _, name := range append(append([]string{}, common...), perNet[net]...) {
			if reg.Counter(name).Value() == 0 {
				t.Errorf("%v: counter %q is zero after an observed run", net, name)
			}
		}
		snap := reg.Snapshot()
		if len(snap.Histograms) == 0 {
			t.Errorf("%v: no histograms in snapshot (FlushMetrics not reached?)", net)
		}
		found := false
		for _, h := range snap.Histograms {
			if h.Name == "fabric.link_util_pct" && h.Count > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: fabric.link_util_pct missing or empty", net)
		}
	}
}

// TestTracingRecordsSpans: an observed run with tracing on produces rank and
// blocked-process timeline events on the engine's track.
func TestTracingRecordsSpans(t *testing.T) {
	reg := metrics.New()
	reg.EnableTracing()
	m, err := New(Options{Network: InfiniBand4X, Ranks: 2, PPN: 1, Metrics: reg, Label: "trace"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(pingpong); err != nil {
		t.Fatal(err)
	}
	tr := m.Eng.TraceTrack()
	if tr == nil {
		t.Fatal("engine has no trace track despite tracing-enabled registry")
	}
	if tr.Events() == 0 {
		t.Fatal("trace track recorded no events")
	}
}

// TestDefaultLabelFallsBackToNetwork: an empty Options.Label names the track
// after the network.
func TestDefaultLabelFallsBackToNetwork(t *testing.T) {
	reg := metrics.New()
	m, err := New(Options{Network: QuadricsElan4, Ranks: 2, PPN: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if m.Eng.Metrics() != reg {
		t.Fatal("registry not attached to engine")
	}
}
