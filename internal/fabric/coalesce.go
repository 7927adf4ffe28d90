package fabric

// Idle-path message coalescing.
//
// The chunk-level cut-through model costs O(chunks × hops) events per
// message even when nothing contends. But when a message is alone in the
// fabric and every hop of its path is idle when its first chunk gets
// there, the FIFO pipeline recurrence that the event model executes has a
// closed form, so the delivery time can be computed at Send and realized
// with a single completion event. The fabric takes that fast path under a
// strict eligibility test and keeps a "window" describing the summarized
// traffic; if anything else touches the fabric before the message
// completes, the window expands — the already-elapsed prefix of the
// schedule is folded into the servers' accounting and the still-pending
// chunk arrivals are re-issued through the ordinary lazy chunk machinery —
// so contention is resolved by the exact event-by-event model from that
// instant on.
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
// TestCoalescingExact checks delivery times and server accounting against
// a plain per-chunk reference model fabric-wide.
//
// Eligibility. A window forms only when (1) coalescing is enabled (it is
// on from New; only tests clear it), (2) the path does not
// cross spines in an adaptive fabric (per-chunk spine choice must
// observe true load), (3) no other message is in flight (the in-flight
// count is one: this message), (4) every stage's busy horizon has cleared
// by the time the message's first chunk arrives there (direct Serve
// calls, such as IB doorbells on a host bus, load servers outside any
// message), (5) every per-stage service time is strictly positive (so
// arrivals at later stages are strictly ordered and the
// fold-at-expansion boundary is unambiguous), and (6) no link of the
// path carries a fault. By (3) at most one window is open, and it is
// open only while its message is alone in the fabric.
//
// Exactness boundary. While a window is open its servers' busy horizons
// lag the true schedule; every observer is intercepted. Send expands the
// open window, whatever its path, before it schedules anything;
// SetLinkFault expands it, whatever link it faults, so every chunk loss
// and stall happens in the chunk model; and any
// direct ServeAt on a covered server (the IB doorbell charging the host
// bus) expands it via the server's OnServe hook before the newcomer's
// work is applied. On completion the summarized work is folded in bulk,
// leaving busyUntil/busyTotal/served exactly as the expanded model would
// have. What a window does not keep is the seq of its own events: its
// delivery event takes its seq when the window opens, and the events an
// expansion schedules take theirs when it expands, not where the chunk
// model would take them. At the instant the window opened that is one
// event, the message's own injection; later it is the train of chunks
// still bound for the second stage and the pending arrival or delivery of
// each chunk past it (see expand). Messages sent later take later seqs
// in both models, so deliveries of different messages fire in the chunk
// model's order. But an event scheduled while the window is open, for
// the picosecond of one of the window's events, can run on the other
// side of it. A reader at the delivery instant can see done already
// fired. A direct Serve at the instant a chunk reaches the same server
// expands the window and is served ahead of the chunk the expansion
// re-issues, where the chunk model may serve the chunk first, and then
// the delivery moves. TestCoalescedTieOrder pins both cases.
//
// Observation. Nothing that observes the fabric decides whether a window
// forms. A registry's per-chunk instruments, the link byte counts and the
// chunk-wait histogram, are fed by the window itself: whatever it folds
// into a server's accounting, at completion or expansion, it also records
// chunk by chunk as Fabric.account would have (see window.account), and
// the chunks an expansion re-issues are recorded by the chunk model. A
// probe sees every loss and stall, since those happen only in the chunk
// model. checkReference compares the recorded waits and bytes with the
// reference model's on every storm.

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// window summarizes one coalesced in-flight message.
type window struct {
	f    *Fabric
	live sim.Live
	ms   *msgState

	t0   units.Time
	n    int         // chunk count
	last units.Bytes // size of the final chunk
	m    int         // stage count

	// Per stage: the last chunk's service (the full-chunk service and the
	// latency are the stage's own, read from the fabric's stage table),
	// and the schedule.
	sLast [maxStages]units.Duration // last-chunk service per stage
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
	w := f.freeWins.Get()
	if w == nil {
		w = &window{f: f}
		w.expandFn = w.expand
		w.completeFn = w.complete
	}
	w.live.Acquire()
	return w
}

// hop returns the i-th stage of the window's path.
func (w *window) hop(i int) *stage { return w.f.hop(&w.ms.pt, i) }

func (f *Fabric) putWindow(w *window) {
	w.ms = nil
	w.expanded = false
	f.freeWins.Put(w, &w.live)
}

// tryCoalesce attempts to open a window for ms (n chunks, final chunk
// size last). Caller has verified the policy gates (coalescing enabled,
// ms alone in flight, not an adaptive spine crossing, no faulted link);
// this checks per-server eligibility while evaluating the closed-form
// schedule, and on success installs the window and its single delivery
// event.
func (f *Fabric) tryCoalesce(ms *msgState, n int, last units.Bytes) bool {
	m := int(ms.pt.n)
	t0 := f.eng.Now()
	ov := f.params.PacketOverhead
	full := n > 1

	w := f.getWindow()
	w.ms = ms
	var bneck units.Duration
	for i := 0; i < m; i++ {
		st := w.hop(i)
		sF := st.full
		sL := st.rate.TimeFor(last + ov)
		if sL <= 0 || (full && sF <= 0) {
			f.putWindow(w)
			return false
		}
		w.sLast[i] = sL
		var prevLat units.Duration
		if i > 0 {
			prevLat = w.hop(i - 1).lat
		}

		// Full-chunk row.
		var aFirst units.Time
		if full {
			aF0 := t0
			if i > 0 {
				aF0 = w.baseC[i-1].Add(prevLat)
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
			aL = w.cLast[i-1].Add(prevLat)
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

	w.t0 = t0
	w.n = n
	w.last = last
	w.m = m
	w.deliverAt = w.cLast[m-1].Add(w.hop(m - 1).lat)
	for i := 0; i < m; i++ {
		w.hop(i).srv.OnServe(w.expandFn)
	}
	f.open = w
	f.eng.At(w.deliverAt, w.completeFn)
	return true
}

// complete runs at the window's analytic delivery time. If the window
// survived unexpanded, it folds the whole message's service into each
// stage's accounting — leaving busyUntil exactly at the last chunk's
// completion, and busyTotal/served exactly as n per-chunk ServeAt calls
// would have — then retires the message.
func (w *window) complete() {
	w.live.Check(w)
	f := w.f
	if w.expanded {
		f.putWindow(w)
		return
	}
	ms := w.ms
	for i := 0; i < w.m; i++ {
		srv := w.hop(i).srv
		srv.OnServe(nil)
		busy := w.sLast[i]
		if w.n > 1 {
			busy += units.Duration(w.n-1) * w.hop(i).full
		}
		srv.Absorb(w.cLast[i], busy, uint64(w.n))
		w.account(i, w.n-1, true)
	}
	f.open = nil
	ms.remaining = 0
	f.putWindow(w)
	f.retireMsg(ms)
}

// arrFull reports full chunk k's arrival time at stage i.
func (w *window) arrFull(k, i int) units.Time {
	if i == 0 {
		return w.t0
	}
	return w.baseC[i-1].Add(units.Duration(k)*w.bneck[i-1] + w.hop(i-1).lat)
}

// account records at stage i what Fabric.account records for the chunks
// the window folds there: full chunks 0..nf-1 and, when last is set, the
// last chunk. No-op without a registry; host-bus stages record nothing,
// as in Fabric.account.
func (w *window) account(i, nf int, last bool) {
	f := w.f
	link := w.hop(i).link
	if f.linkBytes == nil || link < 0 {
		return
	}
	f.linkBytes[link] += units.Bytes(nf) * f.params.MTU
	for k := 0; k < nf; k++ {
		f.observeWait(w.doneBefore(k, i), w.arrFull(k, i))
	}
	if last {
		f.linkBytes[link] += w.last
		f.observeWait(w.doneBefore(w.n-1, i), w.aLast[i])
	}
}

// doneBefore reports when stage i finishes serving the chunk before chunk
// k, the server's busy horizon at chunk k's arrival. Chunk 0 has none and
// finds the stage idle (eligibility 4), so it reports time 0, which
// charges no wait.
func (w *window) doneBefore(k, i int) units.Time {
	if k == 0 {
		return 0
	}
	return w.baseC[i].Add(units.Duration(k-1) * w.bneck[i])
}

// expand materializes the window at the current instant and hands the
// message back to the chunk model's own mechanisms.
//
// Expanded at the instant it opened, the window has served nothing, so
// the message takes its own injection event now, and from there follows
// inject and startTrain exactly. That event stands for the n same-instant
// first-stage arrivals the chunks would otherwise each take, which is
// inject's own argument.
//
// Expanded later, every chunk arrival strictly before now is folded into
// its stage's accounting in bulk, and every arrival at or after now (or
// pending final delivery) is re-issued. The chunks that have crossed the
// first stage but not reached the second become the message's train (see
// train); every other chunk takes its own chunk state.
//
// From this event on the message follows the chunk model, except that
// the events the expansion schedules take their seqs now (see the
// exactness boundary above).
func (w *window) expand() {
	w.live.Check(w)
	f := w.f
	w.expanded = true
	ms := w.ms
	for i := 0; i < w.m; i++ {
		w.hop(i).srv.OnServe(nil)
	}
	f.open = nil
	now := f.eng.Now()
	if now == w.t0 {
		f.eng.At(now, ms.injectFn)
		return
	}
	nFull := w.n - 1

	// Fold the elapsed prefix per stage. The chunks folded at the second
	// stage, k1 of them, are those that have reached it.
	k1 := 0
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
		if i == 1 {
			k1 = items
		}
		if items == 0 {
			continue
		}
		busy := units.Duration(nf) * w.hop(i).full
		var horizon units.Time
		if lastIn {
			horizon = w.cLast[i]
			busy += w.sLast[i]
		} else {
			horizon = w.baseC[i].Add(units.Duration(nf-1) * w.bneck[i])
		}
		w.hop(i).srv.Absorb(horizon, busy, uint64(items))
		w.account(i, nf, lastIn)
	}

	// Re-issue pending chunk arrivals in chunk order (preserving FIFO
	// sequence at shared stages) and pending final deliveries. Each one is
	// the completion of the stage before it, so it goes on that server's
	// lane, where the expanded chunk path would have queued it. Chunks
	// k1..n-1 are all on their way to the second stage, so they go as one
	// train unless the lane refuses it. Unlike inject's, this train needs
	// no faults-off gate: the window served these chunks at the first
	// stage on a path without faults, so their arrivals at the second are
	// fixed, and each firing steps its chunk on through the chunk model,
	// faults and all.
	mtu := f.params.MTU
	delivered := 0
	for k := 0; k < w.n; k++ {
		if k == k1 && w.train(k1) {
			break
		}
		isLast := k == w.n-1
		sz := mtu
		if isLast {
			sz = w.last
		}
		resumed := false
		for i := 1; i < w.m; i++ {
			var a units.Time
			if isLast {
				a = w.aLast[i]
			} else {
				a = w.arrFull(k, i)
			}
			if a >= now {
				cs := f.getChunk(ms, i, sz, a)
				w.hop(i-1).srv.Lane().At(a, &cs.lane, cs.stepFn)
				resumed = true
				break
			}
		}
		if resumed {
			continue
		}
		// With faults off, step retires a chunk as it is served at the last
		// stage unless it is the last one served there, which on a
		// window's single path is the final chunk. A chunk past that stage
		// is retired here by the same rule.
		if !isLast && !f.faultsOn {
			delivered++
			continue
		}
		var out units.Time
		if isLast {
			out = w.deliverAt
		} else {
			out = w.baseC[w.m-1].Add(units.Duration(k)*w.bneck[w.m-1] + w.hop(w.m-1).lat)
		}
		if out >= now {
			cs := f.getChunk(ms, w.m, sz, out)
			w.hop(w.m-1).srv.Lane().At(out, &cs.lane, cs.stepFn)
			continue
		}
		delivered++
	}
	ms.remaining -= int32(delivered)
	// remaining cannot reach zero here: expansion only happens at or
	// before deliverAt, so at least the final delivery is still pending.
}

// train re-issues chunks k..n-1, which have crossed the first stage but
// not reached the second, as the message's train (see startTrain): one
// series entry on the first stage's lane. The per-chunk loop would give
// them consecutive seqs, the last ones it takes, and the series reserves
// the same block, so every firing keeps its key. Reports false, having
// issued nothing, when the lane refuses the series.
func (w *window) train(k int) bool {
	ms := w.ms
	first := w.aLast[1]
	if k < w.n-1 {
		first = w.arrFull(k, 1)
	}
	if !w.hop(0).srv.Lane().Series(first, w.aLast[1], w.n-k, &ms.train, ms.fireFn) {
		return false
	}
	ms.trainAt, ms.trainLeft, ms.lastSer = first, int32(w.n-k), w.sLast[0]
	return true
}
