package mpi

import (
	"fmt"
	"strings"

	"repro/internal/units"
)

// EventKind classifies a trace record.
type EventKind uint8

// Trace event kinds.
const (
	EvSendPost EventKind = iota
	EvRecvPost
	EvSendDone
	EvRecvDone
	EvComputeBegin
	EvComputeEnd
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvSendPost:
		return "send-post"
	case EvRecvPost:
		return "recv-post"
	case EvSendDone:
		return "send-done"
	case EvRecvDone:
		return "recv-done"
	case EvComputeBegin:
		return "compute-begin"
	case EvComputeEnd:
		return "compute-end"
	default:
		return fmt.Sprintf("ev(%d)", uint8(k))
	}
}

// TraceEvent is one record of a rank's activity.
type TraceEvent struct {
	At   units.Time
	Rank int
	Kind EventKind
	Peer int // -1 when not applicable
	Tag  int
	Size units.Bytes
}

// String renders one event line.
func (e TraceEvent) String() string {
	peer := ""
	if e.Peer >= 0 {
		peer = fmt.Sprintf(" peer=%d tag=%d size=%v", e.Peer, e.Tag, e.Size)
	}
	return fmt.Sprintf("%12v rank%-3d %-13s%s", e.At, e.Rank, e.Kind, peer)
}

// tracer is a bounded ring of events.
type tracer struct {
	buf   []TraceEvent
	next  int
	total uint64
}

// EnableTrace starts recording up to capacity events (a ring: the newest
// survive). Call before Run.
func (w *World) EnableTrace(capacity int) {
	if capacity < 1 {
		panic("mpi: trace capacity must be positive")
	}
	w.trace = &tracer{buf: make([]TraceEvent, 0, capacity)}
}

// Trace returns the recorded events in time order, and the total number of
// events observed (which may exceed the retained count).
func (w *World) Trace() ([]TraceEvent, uint64) {
	if w.trace == nil {
		return nil, 0
	}
	t := w.trace
	if len(t.buf) < cap(t.buf) {
		out := make([]TraceEvent, len(t.buf))
		copy(out, t.buf)
		return out, t.total
	}
	// Ring wrapped: oldest is at next.
	out := make([]TraceEvent, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out, t.total
}

// FormatTrace renders events as a per-rank timeline.
func FormatTrace(events []TraceEvent) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(strings.Repeat("  ", e.Rank%8))
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func (w *World) record(rank int, kind EventKind, peer, tag int, size units.Bytes) {
	t := w.trace
	if t == nil {
		return
	}
	t.total++
	ev := TraceEvent{At: w.eng.Now(), Rank: rank, Kind: kind, Peer: peer, Tag: tag, Size: size}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
		return
	}
	t.buf[t.next] = ev
	t.next = (t.next + 1) % len(t.buf)
}
