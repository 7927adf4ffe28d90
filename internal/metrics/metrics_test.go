package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestNilRegistryIsDisabled(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	tr := r.NewTrack("m")
	if c != nil || g != nil || h != nil || tr != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	// Every instrument method must be a safe no-op on nil.
	c.Add(5)
	g.SetMax(2)
	h.Observe(3)
	tr.SetThreadName(0, "x")
	tr.Span(0, "s", "c", 0, 1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Events() != 0 {
		t.Fatal("nil instrument reported nonzero state")
	}
	r.EnableTracing()
	if r.NewTrack("m") != nil {
		t.Fatal("nil registry turned tracing on")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := New()
	c := r.Counter("events")
	c.Add(1)
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	if r.Counter("events") != c {
		t.Fatal("same name returned a different counter")
	}
	g := r.Gauge("depth")
	g.SetMax(4)
	g.SetMax(2) // lower: ignored
	if g.Value() != 4 {
		t.Fatalf("gauge = %v after SetMax(2), want 4", g.Value())
	}
	g.SetMax(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %v after SetMax(7), want 7", g.Value())
	}
}

// TestFold: each fold adds what the totals gained since the last one,
// and registers every counter even when it gained nothing.
func TestFold(t *testing.T) {
	r := New()
	var folded [2]uint64
	r.Fold(folded[:], Tally{"a", 0}, Tally{"b", 0})
	if s := r.Snapshot(); len(s.Counters) != 2 || s.Counters[0].Value != 0 || s.Counters[1].Value != 0 {
		t.Fatalf("fold of zero totals: %+v", s.Counters)
	}
	r.Fold(folded[:], Tally{"a", 3}, Tally{"b", 5})
	r.Fold(folded[:], Tally{"a", 4}, Tally{"b", 5})
	if a, b := r.Counter("a").Value(), r.Counter("b").Value(); a != 4 || b != 5 {
		t.Fatalf("after folds: a=%d b=%d, want 4 and 5", a, b)
	}
	var nilReg *Registry
	nilReg.Fold(folded[:], Tally{"a", 9}, Tally{"b", 9})
	if folded != [2]uint64{4, 5} {
		t.Fatalf("nil registry advanced the marks: %v", folded)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0},
		{1, 1},         // [1, 2)
		{2, 2}, {3, 2}, // [2, 4)
		{4, 3}, {7, 3}, // [4, 8)
		{8, 4}, // [8, 16)
		{1023, 10}, {1024, 11},
		{math.MaxInt64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramStats(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	for _, v := range []int64{3, 1, 4, 1, 5} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(s.Histograms))
	}
	p := s.Histograms[0]
	if p.Count != 5 || p.Sum != 14 || p.Min != 1 || p.Max != 5 {
		t.Fatalf("stats: %+v", p)
	}
	if math.Abs(p.Mean-2.8) > 1e-12 {
		t.Fatalf("mean = %v", p.Mean)
	}
	// 1,1 -> bucket 1; 3 -> bucket 2; 4,5 -> bucket 3.
	want := []BucketPoint{{1, 2}, {2, 1}, {3, 2}}
	if fmt.Sprint(p.Buckets) != fmt.Sprint(want) {
		t.Fatalf("buckets = %v, want %v", p.Buckets, want)
	}
}

func TestEmptyHistogramSnapshot(t *testing.T) {
	r := New()
	r.Histogram("unused")
	p := r.Snapshot().Histograms[0]
	// Min/Max sentinels must not leak into the snapshot.
	if p.Count != 0 || p.Min != 0 || p.Max != 0 || p.Mean != 0 {
		t.Fatalf("empty histogram snapshot: %+v", p)
	}
}

func TestSnapshotSortedByName(t *testing.T) {
	r := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		r.Counter(n).Add(1)
		r.Gauge(n).SetMax(1)
		r.Histogram(n).Observe(1)
	}
	s := r.Snapshot()
	for i, want := range []string{"alpha", "mid", "zeta"} {
		if s.Counters[i].Name != want || s.Gauges[i].Name != want || s.Histograms[i].Name != want {
			t.Fatalf("snapshot not name-sorted: %+v", s)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	// Parallel sweep jobs share one registry; updates must merge exactly.
	r := New()
	c := r.Counter("n")
	g := r.Gauge("max")
	h := r.Histogram("v")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
				g.SetMax(float64(w*per + i))
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != float64(workers*per-1) {
		t.Fatalf("gauge max = %v, want %v", g.Value(), workers*per-1)
	}
	s := r.Snapshot()
	p := s.Histograms[0]
	if p.Count != workers*per || p.Min != 0 || p.Max != per-1 {
		t.Fatalf("histogram stats: %+v", p)
	}
	var total uint64
	for _, b := range p.Buckets {
		total += b.Count
	}
	if total != workers*per {
		t.Fatalf("bucket total = %d, want %d", total, workers*per)
	}
}

func TestTrackRequiresTracing(t *testing.T) {
	r := New()
	if tr := r.NewTrack("m"); tr != nil {
		t.Fatal("NewTrack returned a live track with tracing off")
	}
	r.EnableTracing()
	tr := r.NewTrack("m")
	if tr == nil {
		t.Fatal("NewTrack returned nil with tracing on")
	}
	tr.Span(0, "a", "cat", 1000, 3000)
	tr.Span(1, "b", "cat", 2000, 2000)
	if tr.Events() != 2 {
		t.Fatalf("events = %d", tr.Events())
	}
}

// chromeFile mirrors the subset of the trace_event container format the
// exporter writes, for round-trip validation.
type chromeFile struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int64             `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTrace(t *testing.T) {
	r := New()
	r.EnableTracing()
	// Create out of label order to exercise the deterministic sort.
	b := r.NewTrack("beta")
	a := r.NewTrack("alpha")
	a.SetThreadName(0, "rank0")
	a.Span(0, "send", "mpi", 1_000_000, 3_000_000) // 1us..3us in ps
	b.Span(5, "drop", "fabric", 2_000_000, 2_000_000)

	var buf jsonBuffer
	if err := WriteChromeTrace(&buf, TraceSource{Label: "fig1", Reg: r}); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.data, &f); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v\n%s", err, buf.data)
	}
	// alpha sorts before beta: pid 1 = alpha, pid 2 = beta.
	byName := map[string]int{}
	var spanTs, spanDur float64
	for _, ev := range f.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			byName[ev.Args["name"]] = ev.Pid
		}
		if ev.Ph == "X" && ev.Name == "send" {
			spanTs, spanDur = ev.Ts, ev.Dur
		}
	}
	if byName["fig1: alpha"] != 1 || byName["fig1: beta"] != 2 {
		t.Fatalf("process pids = %v, want alpha=1 beta=2", byName)
	}
	// 1e6 ps = 1 us; 2e6 ps duration = 2 us.
	if spanTs != 1 || spanDur != 2 {
		t.Fatalf("span ts=%v dur=%v, want 1 and 2 us", spanTs, spanDur)
	}

	// Determinism: a second export is byte-identical.
	var buf2 jsonBuffer
	if err := WriteChromeTrace(&buf2, TraceSource{Label: "fig1", Reg: r}); err != nil {
		t.Fatal(err)
	}
	if string(buf.data) != string(buf2.data) {
		t.Fatal("repeated export differs")
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf jsonBuffer
	if err := WriteChromeTrace(&buf, TraceSource{Reg: nil}); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.data, &f); err != nil {
		t.Fatalf("empty trace not valid JSON: %v\n%s", err, buf.data)
	}
	if len(f.TraceEvents) != 0 {
		t.Fatalf("events = %d, want 0", len(f.TraceEvents))
	}
}

// jsonBuffer is a minimal io.Writer capturing output for inspection.
type jsonBuffer struct{ data []byte }

func (b *jsonBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func TestSnapshotJSONShape(t *testing.T) {
	r := New()
	r.Counter("sim.events").Add(42)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"counters":[{"name":"sim.events","value":42}]}`
	if string(data) != want {
		t.Fatalf("snapshot JSON = %s, want %s", data, want)
	}
}
