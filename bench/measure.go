package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/platform"
)

// simResult is one simulation's modelled outcome.
type simResult struct {
	events uint64 // dispatched events (Result.Events)
	digest string
	err    error
}

func (s simSpec) options(reg *metrics.Registry) platform.Options {
	return platform.Options{Network: s.net, Ranks: s.ranks, PPN: s.ppn, Metrics: reg, Label: s.key}
}

// runSim builds the machine and runs the simulation. reg, when non-nil, is
// attached to the machine.
func runSim(s simSpec, reg *metrics.Registry, spans *spanLog) simResult {
	app, outputs := s.body()
	t0 := time.Now()
	m, err := platform.New(s.options(reg))
	t1 := time.Now()
	spans.add("platform.New", "setup", t0, t1, s.key)
	if err != nil {
		return simResult{err: fmt.Errorf("platform.New: %w", err)}
	}
	out, err := m.Run(app)
	t2 := time.Now()
	spans.add("Machine.Run", "run", t1, t2, s.key)
	spans.add("sim", "sim", t0, t2, s.key)
	if err != nil {
		return simResult{err: fmt.Errorf("Machine.Run: %w", err)}
	}
	d := newDigest()
	d.add(int64(out.Elapsed))
	for _, e := range out.RankElapsed {
		d.add(int64(e))
	}
	if outputs != nil {
		outputs(d)
	}
	return simResult{events: out.Events, digest: d.sum()}
}

// passSample is the host cost of one pass over every simulation of a
// workload.
type passSample struct {
	wall, cpu, setup time.Duration
	allocBytes       uint64
	events           uint64
}

// bench runs a workload's simulations one at a time, pass after pass, and
// checks every result against the golden digests and against the first
// pass.
type bench struct {
	sims   []simSpec
	golden map[string]string
	// strict requires every simulation to have a golden digest: true at
	// the seed golden.json was recorded at.
	strict bool
	spans  *spanLog

	first     map[string]string // digest of each key's first run
	attempted int
	failures  []string
}

func newBench(sims []simSpec, golden map[string]string, strict bool, spans *spanLog) *bench {
	return &bench{sims: sims, golden: golden, strict: strict, spans: spans, first: map[string]string{}}
}

// pass runs every simulation once. It forces a collection first so each
// pass starts from the same heap, outside the measured interval.
func (b *bench) pass(kind string, reg *metrics.Registry) passSample {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	var s passSample
	for _, spec := range b.sims {
		r := runSim(spec, reg, b.spans)
		b.check(spec, r)
		s.events += r.events
	}
	t1 := time.Now()
	s.wall = t1.Sub(t0)
	s.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	s.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	b.spans.add("pass", kind, t0, t1, "")
	return s
}

// setupReps is how many times setupTime builds each simulation's machine.
const setupReps = 5

// setupTime reports the host time spent in platform.New to build one
// machine for every simulation of the workload, taking for each the median
// of setupReps builds: a collection or a cold cache that slows one build
// does not move it.
func (b *bench) setupTime() time.Duration {
	var total time.Duration
	ds := make([]float64, setupReps)
	for _, s := range b.sims {
		for i := range ds {
			t0 := time.Now()
			_, err := platform.New(s.options(nil))
			ds[i] = float64(time.Since(t0))
			if err != nil {
				return 0 // the pass's own run of s has failed on it already
			}
		}
		total += time.Duration(summarize(ds).Median)
	}
	return total
}

// check records one simulation's outcome: an error, a digest that differs
// from golden.json, or one that differs from the key's earlier runs is a
// failed simulation.
func (b *bench) check(s simSpec, r simResult) {
	b.attempted++
	var why string
	want, known := b.golden[s.key]
	prev, seen := b.first[s.key]
	switch {
	case r.err != nil:
		why = r.err.Error()
	case known && r.digest != want:
		why = fmt.Sprintf("digest %s, golden %s", r.digest, want)
	case !known && b.strict:
		why = fmt.Sprintf("digest %s has no golden entry", r.digest)
	case seen && r.digest != prev:
		why = fmt.Sprintf("digest %s, earlier pass %s", r.digest, prev)
	}
	if !seen && r.err == nil {
		b.first[s.key] = r.digest
	}
	if why != "" {
		b.failures = append(b.failures, s.key+": "+why)
	}
}

// cpuTime reports the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reports the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// summary is a metric's distribution over a run's passes.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
	Bound  float64 `json:"bound"`
}

// summarize computes median and quartiles the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// numbers printed here match an external check of the same values.
func summarize(values []float64) summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return summary{}
	}
	if n == 1 {
		return summary{Median: v[0], Q1: v[0], Q3: v[0], N: 1}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return summary{Median: q[1], Q1: q[0], Q3: q[2], N: n}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// fingerprint identifies the host a run was measured on. Two runs compare
// only when their fingerprints are equal.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Pinned     bool   `json:"pinned"` // the process ran on one CPU (see pinToOneCPU)
	Go         string `json:"go"`
	GOARCH     string `json:"goarch"`
}

func hostFingerprint() fingerprint {
	_, nproc, pinned := pinnedCPU()
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Pinned:     pinned,
		Go:         runtime.Version(),
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d pinned=%t go=%s goarch=%s",
		f.CPU, f.NProc, f.GOMAXPROCS, f.Pinned, f.Go, f.GOARCH)
}
