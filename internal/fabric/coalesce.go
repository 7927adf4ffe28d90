package fabric

// Idle-path message coalescing.
//
// The chunk-level cut-through model costs O(chunks × hops) events per
// message even when nothing contends. But when every hop of a message's
// path is idle for the whole transfer, the FIFO pipeline recurrence that
// the event model executes has a closed form, so the delivery time can
// be computed at Send and realized with a single completion event. The
// fabric takes that fast path under a strict eligibility test and keeps
// a "window" describing the summarized traffic; if anything else touches
// a covered server before the message completes, the window expands —
// the already-elapsed prefix of the schedule is folded into the servers'
// accounting and the still-pending chunk arrivals are re-issued through
// the ordinary lazy chunk machinery — so contention is resolved by the
// exact event-by-event model from that instant on.
//
// Closed form. Let stage i have full-chunk service sF[i], last-chunk
// service sL[i] (sL <= sF), and post-service latency lat[i]; let the
// message start at t0 with n chunks (n-1 full, one last). With every
// stage idle, chunk 0 never waits, so its completions satisfy
//
//	c[0,i] = t0 + Σ_{j<=i} sF[j] + Σ_{j<i} lat[j]            (baseC[i])
//
// and full chunk k (arriving behind k identical predecessors at every
// stage) completes stage i at
//
//	c[k,i] = baseC[i] + k·B[i],  B[i] = max_{j<=i} sF[j]     (bneck[i])
//
// which follows by induction on (k, i): the start of chunk k at stage i
// is max(arrival, previous completion) = max(c[k,i-1]+lat? ... both
// arms reduce to baseC[i] - sF[i] + k·B[i] because B[i] >= sF[j] for
// all j <= i. The last (shorter) chunk trails the full chunks, so its
// row is the m-step recurrence cLast[i] = max(cLast[i-1]+lat[i-1],
// baseC[i]+(n-2)·B[i]) + sL[i], and the delivery time is
// cLast[m-1]+lat[m-1]. All arithmetic is exact in integer picoseconds —
// MinLatency evaluates the same recurrence chunk by chunk, and
// TestCoalescingExact checks the equivalence fabric-wide.
//
// Eligibility. A window forms only when (1) coalescing is enabled and no
// per-chunk instruments are live, (2) the path does not cross spines in
// an adaptive fabric (per-chunk spine choice must observe true load),
// (3) no other in-flight message uses any server of the path (in-flight
// refcounts; the lazy chunk model's busy horizon cannot reveal traffic
// that has not arrived yet), (4) every stage's busy horizon has cleared
// by the time the message's first chunk arrives there, and (5) every
// per-stage service time is strictly positive (so arrivals at later
// stages are strictly ordered and the fold-at-expansion boundary is
// unambiguous).
//
// Exactness boundary. While a window is open the covered servers' busy
// horizons lag the true schedule; every observer is intercepted — a new
// Send overlapping the window expands it before scheduling (Send), and
// any direct ServeAt on a covered server (e.g. the IB doorbell charging
// the host bus) expands it via the server's OnServe hook before the
// newcomer's work is applied. On completion the summarized work is
// folded in bulk, leaving busyUntil/busyTotal/served exactly as the
// expanded model would have. The one residual ambiguity is event *order*
// among same-picosecond events of unrelated messages (the coalesced run
// assigns different sequence numbers than the expanded run); ties like
// that do not arise in the calibrated experiments — `make fix-verify`
// and the machine-level TestCoalescingExact confirm byte-identical
// results — and the randomized storm tests bound the risk elsewhere.

import (
	"repro/internal/topology"
	"repro/internal/units"
)

// window summarizes one coalesced in-flight message.
type window struct {
	f  *Fabric
	ms *msgState

	t0   units.Time
	n    int         // chunk count
	last units.Bytes // size of the final chunk
	m    int         // stage count

	sFull [maxStages]units.Duration // full-chunk service per stage
	sLast [maxStages]units.Duration // last-chunk service per stage
	lat   [maxStages]units.Duration
	baseC [maxStages]units.Time     // c[0,i] for full chunks (n > 1 only)
	bneck [maxStages]units.Duration // B[i] = max full service over stages <= i
	aLast [maxStages]units.Time     // last chunk's arrival per stage
	cLast [maxStages]units.Time     // last chunk's completion per stage

	deliverAt units.Time
	expanded  bool

	expandFn   func()
	completeFn func()
}

func (f *Fabric) getWindow() *window {
	if n := len(f.freeWins); n > 0 {
		w := f.freeWins[n-1]
		f.freeWins[n-1] = nil
		f.freeWins = f.freeWins[:n-1]
		return w
	}
	w := &window{f: f}
	w.expandFn = w.expand
	w.completeFn = w.complete
	return w
}

func (f *Fabric) putWindow(w *window) {
	w.ms = nil
	w.expanded = false
	f.freeWins = append(f.freeWins, w)
}

func (f *Fabric) removeWindow(w *window) {
	for i, x := range f.windows {
		if x == w {
			copy(f.windows[i:], f.windows[i+1:])
			f.windows[len(f.windows)-1] = nil
			f.windows = f.windows[:len(f.windows)-1]
			return
		}
	}
}

// expandTouching materializes every window that shares a server with the
// given path. Called at the top of Send so a new message always queues
// behind fully-posted traffic.
func (f *Fabric) expandTouching(pt *path) {
	for i := 0; i < len(f.windows); {
		w := f.windows[i]
		if w.overlaps(pt) {
			w.expand() // removes w from f.windows
			continue
		}
		i++
	}
}

// usesLink reports whether the window's path traverses the given link.
// Adaptive spine-crossing paths never coalesce, so the fixed stage list is
// the complete truth.
func (w *window) usesLink(id topology.LinkID) bool {
	wp := &w.ms.pt
	for i := 0; i < wp.n; i++ {
		if wp.stages[i].link == id {
			return true
		}
	}
	return false
}

func (w *window) overlaps(pt *path) bool {
	wp := &w.ms.pt
	for i := 0; i < wp.n; i++ {
		for j := 0; j < pt.n; j++ {
			if wp.stages[i].srv == pt.stages[j].srv {
				return true
			}
		}
	}
	return false
}

// tryCoalesce attempts to open a window for ms (n chunks, final chunk
// size last). Caller has verified policy gates (coalescing enabled, no
// instruments, not an adaptive spine crossing); this checks per-server
// eligibility while evaluating the closed-form schedule, and on success
// installs the window and its single delivery event. Refcounts for ms
// are already held.
func (f *Fabric) tryCoalesce(ms *msgState, n int, last units.Bytes) bool {
	pt := &ms.pt
	m := pt.n
	t0 := f.eng.Now()
	mtu := f.params.MTU
	ov := f.params.PacketOverhead
	full := n > 1

	// A window may only form when no other in-flight message shares any
	// of its servers. Our own refcount is already counted.
	for i := 0; i < m; i++ {
		st := &pt.stages[i]
		if st.link >= 0 {
			if f.linkUsers[st.link] > 1 {
				return false
			}
		} else if f.hostUsers[st.host] > 1 {
			return false
		}
	}

	w := f.getWindow()
	var bneck units.Duration
	for i := 0; i < m; i++ {
		st := &pt.stages[i]
		sF := st.rate.TimeFor(mtu + ov)
		sL := st.rate.TimeFor(last + ov)
		if sL <= 0 || (full && sF <= 0) {
			f.putWindow(w)
			return false
		}
		w.sFull[i], w.sLast[i], w.lat[i] = sF, sL, st.lat

		// Full-chunk row.
		var aFirst units.Time
		if full {
			aF0 := t0
			if i > 0 {
				aF0 = w.baseC[i-1].Add(w.lat[i-1])
			}
			if sF > bneck {
				bneck = sF
			}
			w.baseC[i] = aF0.Add(sF)
			w.bneck[i] = bneck
			aFirst = aF0
		}

		// Last-chunk row.
		aL := t0
		if i > 0 {
			aL = w.cLast[i-1].Add(w.lat[i-1])
		}
		w.aLast[i] = aL
		start := aL
		if full {
			if q := w.baseC[i].Add(units.Duration(n-2) * w.bneck[i]); q > start {
				start = q
			}
		} else {
			aFirst = aL
		}
		w.cLast[i] = start.Add(sL)

		// The stage must be idle through our first arrival, or the
		// closed form would understate queueing.
		if st.srv.BusyUntil() > aFirst {
			f.putWindow(w)
			return false
		}
	}

	w.ms = ms
	w.t0 = t0
	w.n = n
	w.last = last
	w.m = m
	w.deliverAt = w.cLast[m-1].Add(w.lat[m-1])
	for i := 0; i < m; i++ {
		pt.stages[i].srv.OnServe(w.expandFn)
	}
	f.windows = append(f.windows, w)
	f.eng.At(w.deliverAt, w.completeFn)
	return true
}

// complete runs at the window's analytic delivery time. If the window
// survived unexpanded, it folds the whole message's service into each
// stage's accounting — leaving busyUntil exactly at the last chunk's
// completion, and busyTotal/served exactly as n per-chunk ServeAt calls
// would have — then retires the message.
func (w *window) complete() {
	f := w.f
	if w.expanded {
		f.putWindow(w)
		return
	}
	ms := w.ms
	pt := &ms.pt
	for i := 0; i < w.m; i++ {
		srv := pt.stages[i].srv
		srv.OnServe(nil)
		busy := w.sLast[i]
		if w.n > 1 {
			busy += units.Duration(w.n-1) * w.sFull[i]
		}
		srv.Absorb(w.cLast[i], busy, uint64(w.n))
	}
	f.removeWindow(w)
	f.releaseRefs(pt)
	done := ms.done
	ms.done = nil
	ms.remaining = 0
	f.freeMsgs = append(f.freeMsgs, ms)
	f.putWindow(w)
	done.Fire()
}

// arrFull reports full chunk k's arrival time at stage i.
func (w *window) arrFull(k, i int) units.Time {
	if i == 0 {
		return w.t0
	}
	return w.baseC[i-1].Add(units.Duration(k)*w.bneck[i-1] + w.lat[i-1])
}

// expand materializes the window at the current instant: every chunk
// arrival strictly before now is folded into its stage's accounting in
// bulk, and every later arrival (or pending final delivery) is re-issued
// through the exact lazy chunk machinery. From this event on the message
// is indistinguishable from one that was never coalesced.
func (w *window) expand() {
	f := w.f
	w.expanded = true
	ms := w.ms
	pt := &ms.pt
	for i := 0; i < w.m; i++ {
		pt.stages[i].srv.OnServe(nil)
	}
	f.removeWindow(w)
	now := f.eng.Now()
	nFull := w.n - 1

	// Fold the elapsed prefix per stage.
	for i := 0; i < w.m; i++ {
		nf := 0
		if nFull > 0 && w.arrFull(0, i) < now {
			if i == 0 {
				nf = nFull // all chunks arrive at stage 0 at t0
			} else {
				a0 := int64(w.arrFull(0, i))
				b := int64(w.bneck[i-1])
				nf = int((int64(now)-1-a0)/b) + 1
				if nf > nFull {
					nf = nFull
				}
			}
		}
		lastIn := w.aLast[i] < now
		items := nf
		if lastIn {
			items++
		}
		if items == 0 {
			continue
		}
		busy := units.Duration(nf) * w.sFull[i]
		var horizon units.Time
		if lastIn {
			horizon = w.cLast[i]
			busy += w.sLast[i]
		} else {
			horizon = w.baseC[i].Add(units.Duration(nf-1) * w.bneck[i])
		}
		pt.stages[i].srv.Absorb(horizon, busy, uint64(items))
	}

	// Re-issue pending chunk arrivals in chunk order (preserving FIFO
	// sequence at shared stages) and pending final deliveries.
	mtu := f.params.MTU
	delivered := 0
	for k := 0; k < w.n; k++ {
		isLast := k == w.n-1
		sz := mtu
		if isLast {
			sz = w.last
		}
		resumed := false
		for i := 0; i < w.m; i++ {
			var a units.Time
			if isLast {
				a = w.aLast[i]
			} else {
				a = w.arrFull(k, i)
			}
			if a >= now {
				cs := f.getChunk(ms, i, sz, a)
				f.eng.At(a, cs.stepFn)
				resumed = true
				break
			}
		}
		if resumed {
			continue
		}
		var out units.Time
		if isLast {
			out = w.deliverAt
		} else {
			out = w.baseC[w.m-1].Add(units.Duration(k)*w.bneck[w.m-1] + w.lat[w.m-1])
		}
		if out >= now {
			cs := f.getChunk(ms, w.m-1, sz, out)
			f.eng.At(out, cs.deliverFn)
			continue
		}
		delivered++
	}
	ms.remaining -= delivered
	// remaining cannot reach zero here: expansion only happens at or
	// before deliverAt, so at least the final delivery is still pending.
}
