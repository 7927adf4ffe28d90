package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden.json from every simulation at the default seed")

func simKeys(t *testing.T, workload string, seed uint64) []string {
	t.Helper()
	sims, err := buildWorkload(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(sims))
	for i, s := range sims {
		keys[i] = s.key
	}
	return keys
}

func loadGolden(t *testing.T) golden {
	t.Helper()
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// Keys name a simulation's inputs completely (sizes, pattern hashes), so
// equal key lists mean equal workloads.
func TestWorkloadsArePureFunctionsOfSeed(t *testing.T) {
	for _, w := range workloadNames {
		if a, b := simKeys(t, w, 7), simKeys(t, w, 7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave %v, then %v", w, a, b)
		}
		a, b := simKeys(t, w, 1), simKeys(t, w, 2)
		seeded := w == "beff" || w == "bulk"
		if reflect.DeepEqual(a, b) == seeded {
			t.Errorf("%s: seeds 1 and 2 gave %v and %v; seed-dependent: %t", w, a, b, seeded)
		}
	}
	for _, seed := range []uint64{1, 2, 3} {
		keys := strings.Join(simKeys(t, "bulk", seed), " ")
		if !strings.Contains(keys, "bulk/IB/s4194304") || !strings.Contains(keys, "bulk/Elan4/s4194304") {
			t.Errorf("bulk seed %d lacks the 4 MiB size: %s", seed, keys)
		}
		keys = strings.Join(simKeys(t, "beff", seed), " ")
		if !strings.Contains(keys, "beff/IB/r32/ring") || !strings.Contains(keys, "beff/Elan4/r8/stride") {
			t.Errorf("beff seed %d lacks the fixed patterns: %s", seed, keys)
		}
	}
}

func TestBulkSizes(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		sizes := bulkSizes(seed)
		if len(sizes) != 6 || sizes[5] != 4*units.MiB {
			t.Fatalf("seed %d: %v", seed, sizes)
		}
		var total units.Bytes
		for i, s := range sizes[:5] {
			total += s
			if s < 32*units.KiB || s >= 4*units.MiB || (i > 0 && s <= sizes[i-1]) {
				t.Errorf("seed %d: sizes %v not increasing within 32 KiB–4 MiB", seed, sizes)
			}
		}
		if d := total - bulkSeededBytes; d < -5 || d > 5 {
			t.Errorf("seed %d: seeded sizes total %d, want %d", seed, total, bulkSeededBytes)
		}
	}
}

// The smallest simulation of each workload reproduces its golden digest
// whether the runtime has one P or two.
func TestSmallestSimsMatchGolden(t *testing.T) {
	g := loadGolden(t)
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, w := range workloadNames {
			sims, err := buildWorkload(w, g.Seed)
			if err != nil {
				t.Fatal(err)
			}
			s := sims[0]
			for _, c := range sims {
				if c.ranks < s.ranks {
					s = c
				}
			}
			r := runSim(s, nil, nil)
			if r.err != nil {
				t.Errorf("GOMAXPROCS=%d %s: %v", procs, s.key, r.err)
			} else if want := g.Sims[s.key]; r.digest != want {
				t.Errorf("GOMAXPROCS=%d %s: digest %s, golden %q", procs, s.key, r.digest, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

func TestFrameLayer(t *testing.T) {
	cases := []struct{ frame, layer string }{
		{"repro/internal/sim.(*Engine).Run", "sim"},
		{"repro/internal/sim.(*eventQueue).siftDown", "sim"},
		{"repro/internal/fabric.(*chunkState).step", "fabric"},
		{"repro/internal/match.(*Engine).Arrive", "match"},
		{"repro/internal/ib.(*HCA).RDMAWrite.func1", "ib"},
		{"repro/internal/mpi/mvib.(*Transport).deliver", "mvib"},
		{"repro/internal/elan.(*NIC).TxPost", "elan"},
		{"repro/internal/mpi/tports.(*Transport).NetSend.func1", "tports"},
		{"repro/internal/host.(*Node).Compute", "host"},
		{"repro/internal/mpi.(*Rank).Wait", "mpi"},
		{"repro/internal/apps/sweep3d.Run", "apps"},
		{"repro/internal/apps/lammps.overlapStep", "apps"},
		{"repro/internal/platform.New", "platform"},
		{"repro/internal/units.Rate.TimeFor", "other"},
		{"repro/internal/topology.(*Clos).Up", "other"},
		{"main.(*bench).pass", "other"},
		{"fmt.Sprintf", "fmt"},
		{"fmt.(*pp).doPrintf", "fmt"},
		{"runtime.mallocgc", ""},
		{"runtime.chansend1", ""},
		{"sync/atomic.(*Uint64).Add", ""},
		{"slices.SortFunc[go.shape.[]repro/internal/sim.event]", ""},
	}
	for _, c := range cases {
		if got := frameLayer(c.frame); got != c.layer {
			t.Errorf("frameLayer(%q) = %q, want %q", c.frame, got, c.layer)
		}
	}
}

func TestAttribution(t *testing.T) {
	out := `File: bench
Type: cpu
Duration: 3s, Total samples = 70ms (2.33%)
-----------+-------------------------------------------------------
      10ms   runtime.getMCache (inline)
             runtime.mallocgc
             runtime.newobject
             repro/internal/sim.(*Engine).NewSignal (inline)
             repro/internal/mpi.NewRequest (inline)
-----------+-------------------------------------------------------
      20ms   runtime.futex
             runtime.futexwakeup
             runtime.wakep
             runtime.schedule
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             fmt.Sprintf
             repro/internal/mpi.(*Rank).Kick
-----------+-------------------------------------------------------
      10ms   runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	stacks, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 4 || len(stacks[0].frames) != 5 || stacks[0].frames[3] != "repro/internal/sim.(*Engine).NewSignal" {
		t.Fatalf("parsed %+v", stacks)
	}
	got := attribute(stacks)
	want := map[string]float64{
		"sim.cpu_frac": 1.0 / 7, "runtime.cpu_frac": 3.0 / 7, "fmt.cpu_frac": 3.0 / 7,
		"go.malloc_frac": 4.0 / 7, "go.sched_frac": 2.0 / 7, "go.gc_frac": 1.0 / 7,
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += got[l+".cpu_frac"]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cpu_frac sums to %v", sum)
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}

// BENCHMARK.json declares the metrics the benchmark prints, with the same
// units and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	}
	var doc struct {
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for i, list := range [][]metricDef{endToEndMetrics, layerMetrics} {
		declared := [][]metric{doc.EndToEnd, doc.PerLayer}[i]
		var want []metric
		for _, m := range list {
			want = append(want, metric{m.name, m.unit, m.bound})
		}
		if !reflect.DeepEqual(declared, want) {
			t.Errorf("BENCHMARK.json declares %v,\nthe benchmark prints %v", declared, want)
		}
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames)
	}
}

// The module-wide simlint rules hold here too: randomness comes from
// internal/rng, never math/rand, and no error from the repository's own
// APIs is dropped.
func TestSimlintClean(t *testing.T) {
	cfg := lint.DefaultConfig()
	pkg, err := lint.NewLoader(cfg.ModulePath, "..").Load("repro/bench")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run([]*lint.Package{pkg}, nil, cfg, func(p string) []*lint.Analyzer { return lint.AnalyzersFor(cfg, p) })
	for _, d := range lint.Active(diags) {
		t.Error(d)
	}
}

// go test -run TestGoldenUpdate -update rewrites golden.json; it runs every
// simulation of every workload once.
func TestGoldenUpdate(t *testing.T) {
	if !*update {
		t.Skip("rewrites golden.json only with -update")
	}
	g := golden{Seed: defaultSeed, Sims: map[string]string{}}
	for _, w := range workloadNames {
		sims, err := buildWorkload(w, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sims {
			r := runSim(s, nil, nil)
			if r.err != nil {
				t.Fatalf("%s: %v", s.key, r.err)
			}
			g.Sims[s.key] = r.digest
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
