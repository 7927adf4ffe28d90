package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/metrics"
)

// traceDir holds a traced run's artifacts — the CPU profile and the Chrome
// trace of benchmark spans — one subdirectory per workload, under the
// directory the benchmark runs in.
const traceDir = ".bench_build/trace"

// pprofPasses is the number of untimed passes profiled for the per-layer
// CPU attribution.
const pprofPasses = 3

// layerMetrics are the traced run's per-layer numbers. Counts are per pass
// of the workload; *_ns and *_us rows are layer microbenchmarks with fixed
// operation counts; *.cpu_frac rows share the profiled CPU time out over
// layers and sum to 1; go.*_frac rows cut the same samples by runtime
// activity instead.
var layerMetrics = []metricDef{
	{name: "sim.switch_ns", unit: "ns"},
	{name: "sim.switch_allocs", unit: "allocs"},
	{name: "sim.proc_wakes", unit: "count"},
	{name: "sim.at_run_ns", unit: "ns"},
	{name: "sim.events", unit: "count"},
	{name: "sim.events_expanded", unit: "count"},
	{name: "sim.host_ns_per_event", unit: "ns"},
	{name: "sim.coalesce_saved_frac", unit: "frac"},
	{name: "fabric.send_ns.1chunk", unit: "ns"},
	{name: "fabric.send_ns.64chunk", unit: "ns"},
	{name: "fabric.send_ns.64chunk_contended", unit: "ns"},
	{name: "fabric.messages", unit: "count"},
	{name: "fabric.chunks_per_msg", unit: "chunks"},
	{name: "match.arrive_ns.depth1", unit: "ns"},
	{name: "match.arrive_ns.depth64", unit: "ns"},
	{name: "mvib.unexpected_frac", unit: "frac"},
	{name: "elan.unexpected_frac", unit: "frac"},
	{name: "ib.rdma_write_ns.8k", unit: "ns"},
	{name: "ib.rdma_write_ns.1m", unit: "ns"},
	{name: "ib.regcache_hit_frac", unit: "frac"},
	{name: "ib.retransmits", unit: "count"},
	{name: "mvib.eager_sends", unit: "count"},
	{name: "mvib.rndv_sends", unit: "count"},
	{name: "elan.txpost_ns.8k", unit: "ns"},
	{name: "host.compute_ns", unit: "ns"},
	{name: "mpi.pingpong_us.eager.ib", unit: "us"},
	{name: "mpi.pingpong_us.eager.elan", unit: "us"},
	{name: "mpi.pingpong_us.rndv.ib", unit: "us"},
	{name: "mpi.pingpong_us.rndv.elan", unit: "us"},
	{name: "platform.new_us.16", unit: "us"},
	{name: "platform.new_us.512", unit: "us"},
	{name: "sim.cpu_frac", unit: "frac"},
	{name: "fabric.cpu_frac", unit: "frac"},
	{name: "match.cpu_frac", unit: "frac"},
	{name: "ib.cpu_frac", unit: "frac"},
	{name: "mvib.cpu_frac", unit: "frac"},
	{name: "elan.cpu_frac", unit: "frac"},
	{name: "tports.cpu_frac", unit: "frac"},
	{name: "host.cpu_frac", unit: "frac"},
	{name: "mpi.cpu_frac", unit: "frac"},
	{name: "apps.cpu_frac", unit: "frac"},
	{name: "platform.cpu_frac", unit: "frac"},
	{name: "fmt.cpu_frac", unit: "frac"},
	{name: "other.cpu_frac", unit: "frac"},
	{name: "runtime.cpu_frac", unit: "frac"},
	{name: "go.sched_frac", unit: "frac"},
	{name: "go.malloc_frac", unit: "frac"},
	{name: "go.gc_frac", unit: "frac"},
	{name: "metrics.overhead_frac", unit: "frac"},
}

// tracedRun produces the per-layer metrics once the untraced passes have
// run: one pass with a metrics registry attached for layer counts, CPU
// profiles of pprofPasses more passes for per-layer attribution, and the
// layer microbenchmarks. It writes its artifacts under traceDir.
func tracedRun(b *bench, untraced []passSample, rep *report, stdout io.Writer) error {
	dir := filepath.Join(traceDir, rep.Workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	vals := map[string]float64{}

	walls := make([]float64, len(untraced))
	for i, s := range untraced {
		walls[i] = s.wall.Seconds()
	}
	wall := summarize(walls).Median
	events := float64(untraced[0].events)

	reg := metrics.New()
	traced := b.pass("metrics", reg)
	count := registryCounts(reg, stdout)
	for _, name := range []string{"sim.proc_wakes", "fabric.messages", "ib.retransmits", "mvib.eager_sends", "mvib.rndv_sends"} {
		vals[name] = count(name)
	}
	expanded := count("sim.events_dispatched")
	vals["sim.events"] = events
	vals["sim.events_expanded"] = expanded
	vals["sim.host_ns_per_event"] = ratio(wall*1e9, events)
	vals["sim.coalesce_saved_frac"] = 1 - ratio(events, expanded)
	vals["fabric.chunks_per_msg"] = ratio(count("fabric.chunks"), count("fabric.messages"))
	vals["mvib.unexpected_frac"] = ratio(count("mvib.unexpected"), count("mvib.eager_sends")+count("mvib.rndv_sends"))
	vals["elan.unexpected_frac"] = ratio(count("elan.unexpected"), count("elan.tx_posts"))
	hits := count("ib.regcache_hits")
	vals["ib.regcache_hit_frac"] = ratio(hits, hits+count("ib.regcache_misses"))
	vals["metrics.overhead_frac"] = traced.wall.Seconds()/wall - 1

	profile := filepath.Join(dir, "cpu.pprof")
	stacks, err := profilePasses(b, profile)
	if err != nil {
		return err
	}
	for name, v := range attribute(stacks) {
		vals[name] = v
	}
	fmt.Fprintf(stdout, "# traced: %d profiled samples in %s\n", len(stacks), profile)

	micro, err := layerBenchmarks()
	if err != nil {
		return err
	}
	for name, v := range micro {
		vals[name] = v
	}

	spans := filepath.Join(dir, "spans.json")
	if err := b.spans.write(spans); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# traced: spans in %s\n", spans)

	rep.Layers = map[string]metricValue{}
	for _, m := range layerMetrics {
		v, ok := vals[m.name]
		if !ok {
			return fmt.Errorf("traced run produced no %s", m.name)
		}
		rep.Layers[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return nil
}

// registryCounts returns a lookup of the registry's counters. A counter
// the layers no longer register reads as zero, with a note, rather than
// failing the run.
func registryCounts(reg *metrics.Registry, stdout io.Writer) func(string) float64 {
	have := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		have[c.Name] = c.Value
	}
	return func(name string) float64 {
		v, ok := have[name]
		if !ok {
			fmt.Fprintf(stdout, "# traced: counter %s not registered, read as 0\n", name)
		}
		return float64(v)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// profilePasses runs pprofPasses passes under the CPU profiler and returns
// the profile's stacks, as `go tool pprof -traces` prints them.
func profilePasses(b *bench, path string) ([]stack, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	for i := 0; i < pprofPasses; i++ {
		b.pass("pprof", nil)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return parseTraces(string(out))
}

// stack is one sampled call stack, leaf first, with its CPU time.
type stack struct {
	value  time.Duration
	frames []string
}

// parseTraces reads the output of `go tool pprof -traces`: a header, then
// stacks separated by dashed lines, each starting with the sampled time
// and the leaf function, followed by one caller per line.
func parseTraces(out string) ([]stack, error) {
	var stacks []stack
	inTraces, start := false, false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			inTraces, start = true, true
			continue
		}
		fields := strings.Fields(line)
		if !inTraces || len(fields) == 0 {
			continue
		}
		if start {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			stacks = append(stacks, stack{value: d})
			fields = fields[1:]
			start = false
		}
		if len(fields) > 0 {
			s := &stacks[len(stacks)-1]
			s.frames = append(s.frames, fields[0])
		}
	}
	return stacks, nil
}

// cpuLayers are the layers *.cpu_frac shares CPU time among; other holds
// repository code outside them (units, topology, metrics, the benchmark
// itself) and runtime the samples with no repository frame.
var cpuLayers = []string{"sim", "fabric", "match", "ib", "mvib", "elan", "tports", "host", "mpi", "apps", "platform", "fmt", "other", "runtime"}

// framePkg returns the package path of a function name as pprof prints
// it, e.g. "repro/internal/sim" for "repro/internal/sim.(*Engine).Run".
func framePkg(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type parameters may contain dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// frameLayer names the layer a frame belongs to, or "" for a frame outside
// the repository and fmt, which leaves the sample to its callers.
func frameLayer(fn string) string {
	pkg := framePkg(fn)
	switch {
	case pkg == "fmt":
		return "fmt"
	case pkg == "main":
		return "other"
	case strings.HasPrefix(pkg, "repro/internal/"):
		rest := strings.TrimPrefix(pkg, "repro/internal/")
		switch {
		case strings.HasPrefix(rest, "apps/"):
			return "apps"
		case rest == "mpi/mvib":
			return "mvib"
		case rest == "mpi/tports":
			return "tports"
		}
		top, _, _ := strings.Cut(rest, "/")
		for _, l := range cpuLayers {
			if l == top {
				return l
			}
		}
		return "other"
	case pkg == "repro" || strings.HasPrefix(pkg, "repro/"):
		return "other"
	}
	return ""
}

// stackLayer attributes a stack to its innermost repository (or fmt)
// frame, so runtime work a layer triggers — a channel handoff, an
// allocation — counts against that layer.
func stackLayer(frames []string) string {
	for _, f := range frames {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	return "runtime"
}

// schedFuncs are the runtime's scheduling and channel-handoff functions.
var schedFuncs = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.wakep": true, "runtime.mcall": true, "runtime.execute": true,
	"runtime.startm": true, "runtime.stopm": true, "runtime.goexit0": true,
	"runtime.chansend": true, "runtime.chanrecv": true, "runtime.selectgo": true,
	"runtime.futexsleep": true, "runtime.futexwakeup": true,
}

// goActivity classifies a stack by what the Go runtime is doing anywhere in
// it: garbage collection, allocation or scheduling ("" for none of them).
func goActivity(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.GC") ||
			f == "runtime.bgsweep" || f == "runtime.bgscavenge" || f == "runtime.markroot" || f == "runtime.scanobject" {
			return "gc"
		}
	}
	for _, f := range frames {
		if f == "runtime.mallocgc" {
			return "malloc"
		}
	}
	for _, f := range frames {
		if schedFuncs[f] {
			return "sched"
		}
	}
	return ""
}

// attribute shares the profiled time out into the *.cpu_frac and
// go.*_frac metrics.
func attribute(stacks []stack) map[string]float64 {
	var total time.Duration
	byLayer := map[string]time.Duration{}
	byActivity := map[string]time.Duration{}
	for _, s := range stacks {
		total += s.value
		byLayer[stackLayer(s.frames)] += s.value
		byActivity[goActivity(s.frames)] += s.value
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l+".cpu_frac"] = ratio(float64(byLayer[l]), float64(total))
	}
	for _, a := range []string{"sched", "malloc", "gc"} {
		out["go."+a+"_frac"] = ratio(float64(byActivity[a]), float64(total))
	}
	return out
}
