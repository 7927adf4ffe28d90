package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"

	"repro/internal/units"
)

// Track is one timeline process group in the exported Chrome trace: one
// simulated machine (one sim.Engine). Within a track, rows are threads
// (tid): MPI ranks, blocked-process rows, fabric nodes.
//
// A track is single-writer by construction — it is owned by one engine, and
// an engine's events and processes run strictly serialized — so recording
// takes no locks. Creating tracks on a shared registry is synchronized.
type Track struct {
	label   string
	events  []spanEvent
	threads map[int64]string
}

// spanEvent is one recorded timeline entry.
type spanEvent struct {
	name  string
	cat   string
	tid   int64
	begin units.Time
	dur   units.Duration
}

// NewTrack creates a timeline track labelled label (shown as the process
// name in chrome://tracing). Returns nil — the disabled track — when the
// registry is nil or tracing is off; all Track methods are nil-safe.
func (r *Registry) NewTrack(label string) *Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.tracing {
		return nil
	}
	t := &Track{label: label, threads: map[int64]string{}}
	r.tracks = append(r.tracks, t)
	return t
}

// SetThreadName labels a tid row within the track. No-op on nil.
func (t *Track) SetThreadName(tid int64, name string) {
	if t == nil {
		return
	}
	t.threads[tid] = name
}

// Span records a complete [begin, end] interval on row tid. No-op on nil.
func (t *Track) Span(tid int64, name, cat string, begin, end units.Time) {
	if t == nil {
		return
	}
	t.events = append(t.events, spanEvent{name: name, cat: cat, tid: tid,
		begin: begin, dur: end.Sub(begin)})
}

// Events reports the number of recorded entries (0 on nil).
func (t *Track) Events() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// TraceSource names one registry's contribution to a merged trace file.
type TraceSource struct {
	// Label prefixes every track's process name (typically the experiment
	// id). Empty is fine for single-source traces.
	Label string
	Reg   *Registry
}

// chromeEvent is the trace_event JSON wire format (the subset chrome://
// tracing and Perfetto load: X = complete span, M = metadata).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// usOf converts simulated picoseconds to the microsecond ts unit of the
// trace_event format, keeping sub-microsecond precision as fractions.
func usOf(ps int64) float64 { return float64(ps) / 1e6 }

// WriteChromeTrace merges every track of every source into one JSON object
// loadable by chrome://tracing or https://ui.perfetto.dev. Output is
// deterministic given deterministic track labels and per-track contents:
// tracks are sorted by (source order, label) and assigned pids in that
// order, and each track's events keep their recorded order (simulated-time
// order within an engine).
func WriteChromeTrace(w io.Writer, sources ...TraceSource) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	pid := 0
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = bw.Write(data)
		return err
	}
	for _, src := range sources {
		for _, tr := range sortedTracks(src.Reg) {
			pid++
			name := tr.label
			if src.Label != "" {
				name = src.Label + ": " + name
			}
			if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]string{"name": name}}); err != nil {
				return err
			}
			for _, tid := range sortedTids(tr.threads) {
				if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
					Args: map[string]string{"name": tr.threads[tid]}}); err != nil {
					return err
				}
			}
			for _, ev := range tr.events {
				if err := emit(chromeEvent{Name: ev.name, Cat: ev.cat, Ph: "X", Pid: pid, Tid: ev.tid,
					Ts: usOf(int64(ev.begin)), Dur: usOf(int64(ev.dur))}); err != nil {
					return err
				}
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// sortedTracks returns the registry's tracks sorted stably by label (track
// creation order is scheduling-dependent when sweep jobs run in parallel;
// labels are the deterministic key). Ties keep higher-event tracks first so
// equal-label tracks still order reproducibly in practice.
func sortedTracks(r *Registry) []*Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	tracks := append([]*Track(nil), r.tracks...)
	r.mu.Unlock()
	sort.SliceStable(tracks, func(i, j int) bool {
		if tracks[i].label != tracks[j].label {
			return tracks[i].label < tracks[j].label
		}
		return len(tracks[i].events) > len(tracks[j].events)
	})
	return tracks
}

func sortedTids(m map[int64]string) []int64 {
	tids := make([]int64, 0, len(m))
	for tid := range m {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	return tids
}
