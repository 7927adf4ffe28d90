package main

import (
	"encoding/json"
	"os"
	"time"
)

// spanLog keeps the traced run's benchmark-side spans — pass, simulation,
// platform.New and Machine.Run — in memory, to be written as Chrome trace
// JSON when the run ends. Spans nest by time on one thread row, which is
// how the trace viewer draws parent and child. A nil log records nothing.
type spanLog struct {
	start  time.Time
	events []traceEvent
}

// traceEvent is one complete ("X") event of the Chrome trace format.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // µs since the run started
	Dur  float64           `json:"dur"` // µs
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

func newSpanLog() *spanLog { return &spanLog{start: time.Now()} }

// add records a span from t0 to t1; sim names the simulation it belongs to
// ("" for a pass).
func (l *spanLog) add(name, cat string, t0, t1 time.Time, sim string) {
	if l == nil {
		return
	}
	ev := traceEvent{
		Name: name, Cat: cat, Ph: "X", Pid: 1, Tid: 1,
		Ts:  float64(t0.Sub(l.start).Nanoseconds()) / 1e3,
		Dur: float64(t1.Sub(t0).Nanoseconds()) / 1e3,
	}
	if sim != "" {
		ev.Args = map[string]string{"sim": sim}
	}
	l.events = append(l.events, ev)
}

// write stores the spans as a Chrome trace file.
func (l *spanLog) write(path string) error {
	data, err := json.Marshal(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{l.events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
