// Package fabric simulates message transport across a folded-Clos network.
//
// Messages are segmented into MTU-sized chunks that cut through the network:
// a chunk begins serializing on hop i+1 as soon as it has fully serialized
// on hop i and crossed the wire/chassis, so long messages pipeline across
// hops while every link remains a FIFO contention point. This chunk-level
// virtual cut-through is the standard fidelity/cost compromise of
// cluster-scale simulators: per-flit modelling would cost thousands of
// events per message for no change in the behaviours this repository
// studies.
//
// The path of a message is:
//
//	host PCI bus -> injection link -> [uplink -> downlink] -> ejection link -> host PCI bus
//
// The PCI-X stage is optional (HostBandwidth == 0 disables it). It models
// the paper's platform constraint that both networks claim ~2 GB/s at the
// physical layer but deliver well under 1 GB/s through a 133 MHz PCI-X
// slot. PCI-X is a half-duplex shared bus, so a node's inbound and outbound
// DMA contend with each other — and, at 2 processes per node, with the
// other rank's traffic.
//
// Routing policy is a per-fabric choice: the InfiniBand model uses the
// deterministic destination-based spine selection a subnet manager's linear
// forwarding tables produce, while the Elan model uses adaptive
// (least-loaded uplink) selection, which QsNetII implements in hardware.
// Adaptive selection happens per chunk at the moment the chunk reaches the
// leaf's uplink stage, mirroring per-packet hardware adaptivity.
package fabric

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// Params defines the physical characteristics of a fabric.
type Params struct {
	// LinkBandwidth is the per-direction data rate of every cable.
	LinkBandwidth units.Rate
	// WireLatency is the propagation delay of one cable.
	WireLatency units.Duration
	// ChassisLatency is the traversal delay of one switch chassis
	// (covering its internal crossbar stages).
	ChassisLatency units.Duration
	// MTU is the chunking granularity for cut-through pipelining.
	MTU units.Bytes
	// PacketOverhead is added to every chunk's serialization time
	// (headers, CRC, encoding overhead).
	PacketOverhead units.Bytes
	// HostBandwidth is the effective DMA rate of each node's PCI-X bus.
	// Zero disables the host stage.
	HostBandwidth units.Rate
	// HostLatency is the DMA startup cost paid per chunk crossing a host
	// bus.
	HostLatency units.Duration
	// Adaptive selects least-loaded-uplink routing instead of
	// deterministic destination routing.
	Adaptive bool
	// HWRetry selects link-level hardware recovery under fault injection
	// (the QsNetII model): corrupted chunks are retried on the same hop
	// after HWRetryDelay and chunks at down links stall until recovery,
	// all invisibly to the host. Without it (the InfiniBand model) an
	// affected chunk kills its message and recovery belongs to the
	// transport's retransmission machinery. Irrelevant until EnableFaults.
	HWRetry bool
	// HWRetryDelay is the link-level retry/poll interval; must be positive
	// when HWRetry is set (a zero delay would retry a down link in an
	// infinite same-instant event loop).
	HWRetryDelay units.Duration
}

// Validate reports configuration errors.
func (p *Params) Validate() error {
	if p.LinkBandwidth <= 0 {
		return fmt.Errorf("fabric: non-positive link bandwidth")
	}
	if p.MTU <= 0 {
		return fmt.Errorf("fabric: non-positive MTU")
	}
	if p.WireLatency < 0 || p.ChassisLatency < 0 || p.PacketOverhead < 0 || p.HostLatency < 0 {
		return fmt.Errorf("fabric: negative latency or overhead")
	}
	if p.HostBandwidth < 0 {
		return fmt.Errorf("fabric: negative host bandwidth")
	}
	if p.HWRetry && p.HWRetryDelay <= 0 {
		return fmt.Errorf("fabric: HWRetry requires a positive HWRetryDelay")
	}
	return nil
}

// Fabric is an instantiated network: a topology plus one FIFO server per
// unidirectional link and one per node PCI bus.
type Fabric struct {
	eng    *sim.Engine
	clos   *topology.Clos
	params Params

	// stageTab holds one stage per link, indexed by topology.LinkID, then
	// one per node's half-duplex PCI bus when the host stage is enabled
	// (see hostStage). A path holds indices into it.
	stageTab []stage

	messages   uint64
	bytes      units.Bytes
	chunks     uint64
	retired    Retired
	faultStats FaultStats

	// Free lists for the per-message and per-chunk scheduling state, so
	// steady-state Send/chunk traffic allocates nothing. Pool contents
	// never escape the fabric, and every field is reset on get, so reuse
	// cannot leak state across messages.
	freeChunks sim.FreeList[chunkState]
	freeMsgs   sim.FreeList[msgState]

	// coalesce enables the idle-path fast path: a message alone in the
	// fabric is delivered by one analytically-scheduled event instead of
	// per-chunk cut-through events (see tryCoalesce). It is true from New,
	// registry or not, as a window records its own chunks (see
	// window.account); only tests clear it, to run the chunk model.
	coalesce bool
	// inflight counts the messages sent and not yet retired. A window
	// forms only for a message sent when no other is in flight, so at
	// most one is open, and open holds it (nil when none is).
	inflight int
	open     *window

	// freeWins pools coalescing windows. An expanded window stays out of
	// the pool until its stale completion event fires, which can be after
	// its message has retired.
	freeWins sim.FreeList[window]

	// Fault injection (see fault.go). faultsOn is set by EnableFaults;
	// every hot-path fault check is gated on it so clean runs pay one
	// predictable branch. faults holds the per-link fault state, driven
	// by SetLinkFault events.
	faultsOn  bool
	faults    []LinkFault
	lossRNG   []*rng.Source // per-link loss streams, seeded from faultSeed
	faultSeed uint64

	// probe, when non-nil, receives invariant observations (see probe.go).
	probe *Probe

	// Observability, all nil when the engine has no registry. The counts
	// above fold into the registry at FlushMetrics; folded holds what the
	// last fold saw.
	hWait     *metrics.Histogram // per-chunk link queueing delay, ns
	track     *metrics.Track
	linkBytes []units.Bytes // payload bytes per link
	folded    [8]uint64
}

// New builds a fabric over nodes endpoints using chassis of the given radix.
func New(eng *sim.Engine, nodes, radix int, params Params) (*Fabric, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	clos, err := topology.NewClos(nodes, radix)
	if err != nil {
		return nil, err
	}
	f := &Fabric{eng: eng, clos: clos, params: params, coalesce: true}
	f.buildStages()
	if reg := eng.Metrics(); reg != nil {
		f.foldCounts(reg)
		f.hWait = reg.Histogram("fabric.chunk_queue_wait_ns")
		f.linkBytes = make([]units.Bytes, clos.NumLinks())
		f.track = eng.TraceTrack()
		if f.track != nil {
			for i := 0; i < nodes; i++ {
				f.track.SetThreadName(sim.TidNode+int64(i), fmt.Sprintf("node%d wire", i))
			}
		}
	}
	return f, nil
}

// Nodes reports the number of endpoints.
func (f *Fabric) Nodes() int { return f.clos.Nodes }

// Topology exposes the underlying Clos plan (read-only use).
func (f *Fabric) Topology() *topology.Clos { return f.clos }

// Params returns the fabric's physical parameters.
func (f *Fabric) Params() Params { return f.params }

// Stats reports totals since construction.
func (f *Fabric) Stats() (messages uint64, bytes units.Bytes) {
	return f.messages, f.bytes
}

// Retired counts the messages whose last chunk has left the fabric since
// construction, with their payload bytes, by outcome: delivered (the done
// signal fired) or dropped by an unrecovered fault. On a drained fabric
// every sent message is one or the other.
type Retired struct {
	Delivered, Dropped           uint64
	DeliveredBytes, DroppedBytes units.Bytes
}

// Retired reports the retirement totals.
func (f *Fabric) Retired() Retired { return f.retired }

// retire counts one message leaving the fabric.
func (f *Fabric) retire(size units.Bytes, aborted bool) {
	if aborted {
		f.retired.Dropped++
		f.retired.DroppedBytes += size
		return
	}
	f.retired.Delivered++
	f.retired.DeliveredBytes += size
}

// FlushMetrics folds end-of-run statistics into the engine's registry:
// the message, chunk and fault counts gained since the last flush, a
// histogram of per-link utilization (percent), a histogram of per-link
// payload bytes, and a gauge holding the hottest link's utilization. Only
// links that carried traffic are sampled. Counter and histogram adds and
// gauge maxima commute, so a registry shared by parallel sweep jobs stays
// deterministic. No-op when the engine has no registry attached.
func (f *Fabric) FlushMetrics() {
	reg := f.eng.Metrics()
	if reg == nil || f.linkBytes == nil {
		return
	}
	f.foldCounts(reg)
	hUtil := reg.Histogram("fabric.link_util_pct")
	hBytes := reg.Histogram("fabric.link_bytes")
	gMax := reg.Gauge("fabric.max_link_util_pct")
	for id, b := range f.linkBytes {
		if b == 0 {
			continue
		}
		pct := f.stageTab[id].srv.Utilization() * 100
		hUtil.Observe(int64(pct))
		hBytes.Observe(int64(b))
		gMax.SetMax(pct)
	}
}

// foldCounts adds the fabric's counts to reg (see metrics.Registry.Fold).
func (f *Fabric) foldCounts(reg *metrics.Registry) {
	fs := &f.faultStats
	reg.Fold(f.folded[:],
		metrics.Tally{Name: "fabric.messages", Total: f.messages},
		metrics.Tally{Name: "fabric.bytes", Total: uint64(f.bytes)},
		metrics.Tally{Name: "fabric.chunks", Total: f.chunks},
		metrics.Tally{Name: "fabric.chunks_lost", Total: fs.ChunksLost},
		metrics.Tally{Name: "fabric.chunks_hw_retried", Total: fs.ChunksRetried},
		metrics.Tally{Name: "fabric.chunks_rerouted", Total: fs.ChunksRerouted},
		metrics.Tally{Name: "fabric.messages_dropped", Total: fs.MessagesDropped},
		metrics.Tally{Name: "fabric.fault_windows", Total: fs.FaultWindows})
}

// HostBus exposes the node's PCI bus server so NIC models can charge
// descriptor and doorbell traffic to it. Nil when the host stage is
// disabled.
func (f *Fabric) HostBus(node int) *sim.Server {
	if f.params.HostBandwidth == 0 {
		return nil
	}
	return f.stageTab[f.hostStage(node)].srv
}

// maxStages bounds a path's hop count: host bus, injection, uplink,
// downlink, ejection, host bus.
const maxStages = 6

// stage is one FIFO hop: a link or a node's host bus. Everything in it is
// fixed when the fabric is built, so every message crossing the hop reads
// the one entry in the fabric's stage table.
type stage struct {
	srv  *sim.Server
	rate units.Rate
	full units.Duration  // serialization time of a full-MTU chunk
	lat  units.Duration  // latency paid after serialization on this hop
	link topology.LinkID // -1 for host-bus stages (not a fabric link)
}

// buildStages fills the stage table: a server per link and per host bus.
// A link pays its cable's latency and the chassis it enters, except an
// ejection link, which enters the node.
func (f *Fabric) buildStages() {
	p, clos := f.params, f.clos
	nl := clos.NumLinks()
	n := nl
	if p.HostBandwidth > 0 {
		n += clos.Nodes
	}
	f.stageTab = make([]stage, n)
	linkFull := p.LinkBandwidth.TimeFor(p.MTU + p.PacketOverhead)
	hostFull := p.HostBandwidth.TimeFor(p.MTU + p.PacketOverhead)
	for id := 0; id < nl; id++ {
		f.stageTab[id] = stage{f.eng.NewServer(), p.LinkBandwidth, linkFull,
			p.WireLatency + p.ChassisLatency, topology.LinkID(id)}
	}
	for id := nl; id < n; id++ {
		f.stageTab[id] = stage{f.eng.NewServer(), p.HostBandwidth, hostFull, p.HostLatency, -1}
	}
	for node := 0; node < clos.Nodes; node++ {
		f.stageTab[clos.Ejection(node)].lat = p.WireLatency
	}
}

// hostStage reports the stage-table index of the node's host bus.
func (f *Fabric) hostStage(node int) int32 {
	return int32(f.clos.NumLinks() + node)
}

// path is one message's route: the stage-table indices of its hops, with
// the index of the uplink hop (-1 if the route does not cross spines) so
// adaptive fabrics can re-choose the spine chunk by chunk. The hop list is
// a fixed-size array so building a path allocates nothing.
type path struct {
	stages  [maxStages]int32
	n       int32
	upIdx   int32
	srcLeaf int32
	dstLeaf int32
}

func (pt *path) add(st int32) {
	pt.stages[pt.n] = st
	pt.n++
}

func (f *Fabric) fillPath(pt *path, src, dst int) {
	clos := f.clos
	host := f.params.HostBandwidth > 0
	pt.n = 0
	pt.upIdx = -1
	pt.srcLeaf, pt.dstLeaf = 0, 0
	if host {
		pt.add(f.hostStage(src))
	}
	pt.add(int32(clos.Injection(src)))
	if clos.Levels == 2 && clos.LeafOf(src) != clos.LeafOf(dst) {
		srcLeaf, dstLeaf := clos.LeafOf(src), clos.LeafOf(dst)
		spine := 0
		if !f.params.Adaptive {
			spine = clos.DestSpine(dst)
		}
		pt.srcLeaf, pt.dstLeaf = int32(srcLeaf), int32(dstLeaf)
		pt.upIdx = pt.n
		pt.add(int32(clos.Up(srcLeaf, spine)))
		pt.add(int32(clos.Down(spine, dstLeaf)))
	}
	pt.add(int32(clos.Ejection(dst)))
	if host {
		pt.add(f.hostStage(dst))
	}
}

// hop returns pt's i-th stage.
func (f *Fabric) hop(pt *path, i int) *stage {
	return &f.stageTab[pt.stages[i]]
}

// leastLoadedSpine returns the spine whose uplink from the given leaf has
// the earliest busy horizon, ties broken toward the lowest index.
func (f *Fabric) leastLoadedSpine(leaf int) int {
	best, bestAt := 0, units.Forever
	for s := 0; s < f.clos.Spines; s++ {
		if at := f.stageTab[f.clos.Up(leaf, s)].srv.BusyUntil(); at < bestAt {
			best, bestAt = s, at
		}
	}
	return best
}

// msgState is the per-message bookkeeping, pooled on the fabric so Send
// allocates no tracking state in steady flow. Its continuations, injectFn
// and fireFn, are bound once at allocation like chunkState.stepFn. It is
// released when the message retires (see retireMsg).
type msgState struct {
	f    *Fabric
	live sim.Live
	// aborted marks a message killed by an unrecovered fault (see
	// dropMessage): its remaining chunks still drain through the fabric,
	// but it never completes.
	aborted   bool
	pt        path
	remaining int32       // chunks not yet retired
	size      units.Bytes // payload size: the chunk plan, retirement counts
	src, dst  int32       // endpoints and send time: the timeline span
	sent      units.Time
	// The message's completion: done, the signal Send handed out, or,
	// when done is nil, the continuations SendThen was given.
	done     *sim.Signal
	then     [2]func()
	injectFn func()

	// The train (see startTrain): the chunks that have crossed the first
	// stage but not yet arrived at the second, as one lane entry.
	// trainAt is the next one's arrival, trainLeft how many are left, and
	// lastSer the final chunk's serialization time on the first stage.
	train     sim.LaneEntry
	trainAt   units.Time
	trainLeft int32
	lastSer   units.Duration
	fireFn    func() (units.Time, bool)
}

func (f *Fabric) getMsg() *msgState {
	ms := f.freeMsgs.Get()
	if ms == nil {
		ms = &msgState{f: f}
		ms.injectFn = ms.inject
		ms.fireFn = ms.fire
	}
	ms.live.Acquire()
	return ms
}

// retireMsg is a message's one release point: it leaves the fabric,
// completes unless a fault killed it, and its state goes back to the pool.
// Completion records the message's timeline span, when a track is
// attached, and fires the signal Send handed out or schedules SendThen's
// continuations, each as Fire would schedule a callback, in order.
func (f *Fabric) retireMsg(ms *msgState) {
	f.inflight--
	f.retire(ms.size, ms.aborted)
	if !ms.aborted {
		if f.track != nil {
			name := fmt.Sprintf("msg->%d %v", ms.dst, ms.size)
			f.track.Span(sim.TidNode+int64(ms.src), name, "fabric", ms.sent, f.eng.Now())
		}
		if ms.done != nil {
			ms.done.Fire()
		}
		for _, fn := range ms.then {
			if fn != nil {
				f.eng.After(0, fn)
			}
		}
	}
	ms.done, ms.then, ms.aborted = nil, [2]func(){}, false
	f.freeMsgs.Put(ms, &ms.live)
}

// inject is the message's one injection event: it puts chunks 0..n-1 on
// the path's first stage, in chunk order, at the instant Send ran. It
// stands for the n same-instant arrival events the chunks would otherwise
// each take. Those would dispatch back to back with nothing between them
// — heap events due now carry smaller seqs, and whatever the arrivals
// schedule gets larger ones — so running them in one event keeps every
// other event's order.
//
// With faults off a multi-chunk message crosses the first stage as a
// train (see startTrain), and its chunks take chunk states only from the
// second stage on. Otherwise, or when the first stage's lane refuses the
// train, each chunk takes its own state and steps through the first stage.
func (ms *msgState) inject() {
	ms.live.Check(ms)
	f := ms.f
	now := f.eng.Now()
	n, last := f.chunkPlan(ms.size)
	if n > 1 && !f.faultsOn && ms.startTrain(now, n, last) {
		return
	}
	for k := 0; k < n; k++ {
		sz := f.params.MTU
		if k == n-1 {
			sz = last
		}
		// The last chunk's step may retire ms (a drop at the first stage),
		// so ms is not touched after the loop.
		f.getChunk(ms, 0, sz, now).step()
	}
}

// startTrain serves chunks 0..n-1 at the path's first stage, as step
// would, and queues their arrivals at the second stage as one series
// entry on the first stage's lane, the train. Each firing of the train is
// one chunk's arrival (see fire). The keys are those of the per-chunk
// loop:
//
//   - The loop gives chunk k the key (a_k, s+k), s the first seq after it
//     starts, since with faults off nothing else in it takes a seq. The
//     series reserves the same n seqs.
//   - The arrivals a_k follow from the FIFO recurrence: chunk 0 starts
//     when the server frees up, each later one when the one before it
//     is served, and every completion pays the stage's one latency.
//   - A first stage's lane gets completions only with that latency, so
//     nothing queued behind the train can precede its remaining keys.
//
// Reports false, having served nothing, when the lane refuses the train.
func (ms *msgState) startTrain(now units.Time, n int, last units.Bytes) bool {
	f := ms.f
	st := f.hop(&ms.pt, 0)
	srv := st.srv
	if srv.Hooked() {
		// A touch hook runs inside ServeAt and could take seqs between
		// the chunks'. The open window was expanded before this injection
		// was scheduled (by Send, or by the expansion of this message's
		// own window), and no window forms while this message is in
		// flight.
		panic("fabric: coalescing window open on an injecting path")
	}
	lastSer := st.rate.TimeFor(last + f.params.PacketOverhead)
	start := now
	if b := srv.BusyUntil(); b > start {
		start = b
	}
	first := start.Add(st.full + st.lat)
	final := first.Add(units.Duration(n-2)*st.full + lastSer)
	if !srv.Lane().Series(first, final, n, &ms.train, ms.fireFn) {
		return false
	}
	for k := 0; k < n; k++ {
		size, ser := f.params.MTU, st.full
		if k == n-1 {
			size, ser = last, lastSer
		}
		if f.linkBytes != nil {
			f.account(st.link, srv, size, now)
		}
		srv.ServeAt(now, ser)
	}
	if srv.BusyUntil().Add(st.lat) != final {
		panic("fabric: train arrivals diverged from the first stage's service")
	}
	ms.trainAt, ms.trainLeft, ms.lastSer = first, int32(n), lastSer
	return true
}

// fire is one firing of the train: the next chunk arrives at the second
// stage, takes a chunk state there and steps on. It reports the arrival
// of the chunk after it, which is the train's next firing.
func (ms *msgState) fire() (units.Time, bool) {
	ms.live.Check(ms)
	f := ms.f
	at, size := ms.trainAt, f.params.MTU
	ms.trainLeft--
	switch ms.trainLeft {
	case 0:
		_, size = f.chunkPlan(ms.size)
	case 1:
		ms.trainAt = at.Add(ms.lastSer)
	default:
		ms.trainAt = at.Add(f.hop(&ms.pt, 0).full)
	}
	more, next := ms.trainLeft > 0, ms.trainAt
	f.getChunk(ms, 1, size, at).step()
	return next, more
}

// chunkDelivered retires one chunk; the last one retires the message.
func (ms *msgState) chunkDelivered() {
	ms.remaining--
	if ms.remaining > 0 {
		return
	}
	ms.f.retireMsg(ms)
}

// chunkState carries one in-flight chunk through its path. It is pooled,
// and its one continuation, stepFn, is bound once at allocation, so the
// per-chunk-per-hop event loop closes over nothing and allocates nothing.
// A chunk has at most one pending event — its arrival at the next stage,
// or the message's final delivery — so one lane entry serves every hop.
// A message's chunks that have crossed the first stage but not reached
// the second have no chunk state yet: its train stands for them (see
// startTrain), so a message holds about as many chunk states as its path
// holds chunks past the first stage, not one per chunk. The struct stays
// within a 96-byte allocation class.
type chunkState struct {
	lane  sim.LaneEntry
	ms    *msgState
	i     int32 // the stage the chunk arrives at next; ms.pt.n is delivery
	live  sim.Live
	size  units.Bytes
	ready units.Time
	// Adaptive per-chunk spine override, chosen when the chunk reaches
	// the uplink stage (-1 until then; path stages hold the spine-0
	// placeholder).
	upLink, downLink topology.LinkID
	stepFn           func()
}

func (f *Fabric) getChunk(ms *msgState, i int, size units.Bytes, ready units.Time) *chunkState {
	cs := f.freeChunks.Get()
	if cs == nil {
		cs = &chunkState{}
		cs.stepFn = cs.step
	}
	cs.live.Acquire()
	cs.ms, cs.i, cs.size, cs.ready = ms, int32(i), size, ready
	cs.upLink = -1
	return cs
}

// putChunk retires cs into the pool.
func (f *Fabric) putChunk(cs *chunkState) {
	cs.ms = nil
	f.freeChunks.Put(cs, &cs.live)
}

// step is one hop of the lazy cut-through pipeline: the chunk claims the
// stage it has just arrived at, so cross-traffic interleaves correctly
// under contention and adaptive spine choice sees true instantaneous
// load. It runs as the arrival event at cs.ready (the message's inject
// event runs it for the first stage, and a train's firing for the
// second), and past the last stage it retires the chunk at its
// final-delivery time.
//
// With faults off only the chunk served last at the last stage gets a
// delivery event; the others retire as soon as they are served there.
// Every chunk of a message ends on that one FIFO stage with one fixed
// latency, so the chunk served last there is delivered last, and its
// event — the one that fires done — keeps its key. Faults break this:
// extra latency can reorder a stage's completions, and a drop can retire
// the message before a chunk already served has been delivered. So with
// faults on every chunk keeps its delivery event.
func (cs *chunkState) step() {
	cs.live.Check(cs)
	ms := cs.ms
	f := ms.f
	pt := &ms.pt
	i := int(cs.i)
	if i == int(pt.n) {
		f.putChunk(cs)
		ms.chunkDelivered()
		return
	}
	up := int(pt.upIdx)
	if f.params.Adaptive && i == up && cs.upLink < 0 {
		srcLeaf, dstLeaf := int(pt.srcLeaf), int(pt.dstLeaf)
		spine, rerouted := f.chooseSpine(srcLeaf, dstLeaf)
		if rerouted {
			f.faultStats.ChunksRerouted++
		}
		cs.upLink = f.clos.Up(srcLeaf, spine)
		cs.downLink = f.clos.Down(spine, dstLeaf)
	}
	st := f.hop(pt, i)
	if cs.upLink >= 0 {
		// The path's spine stages are placeholders: the chunk's own spine
		// links index the same table.
		if i == up {
			st = &f.stageTab[cs.upLink]
		} else if i == up+1 {
			st = &f.stageTab[cs.downLink]
		}
	}
	srv, link := st.srv, st.link
	lf := f.linkFault(link)
	if lf != nil && lf.Down {
		if f.params.HWRetry {
			// Link-level stall: retry every HWRetryDelay until the link
			// recovers — or, at the uplink stage, until the next attempt's
			// adaptive choice finds a live spine.
			f.faultStats.ChunksRetried++
			f.probeStalled(link, cs.ready)
			if i == up {
				cs.upLink = -1
			}
			cs.ready = cs.ready.Add(f.params.HWRetryDelay)
			f.eng.At(cs.ready, cs.stepFn)
			return
		}
		f.faultStats.ChunksLost++
		f.probeLost(link, cs.ready)
		f.dropMessage(cs)
		return
	}
	if f.linkBytes != nil {
		f.account(link, srv, cs.size, cs.ready)
	}
	ser := st.full
	if cs.size != f.params.MTU {
		ser = st.rate.TimeFor(cs.size + f.params.PacketOverhead)
	}
	lat := st.lat
	if lf != nil {
		if lf.BandwidthScale > 0 && lf.BandwidthScale != 1 {
			ser = ser.Scale(1 / lf.BandwidthScale)
		}
		lat += lf.ExtraLatency
	}
	out := srv.ServeAt(cs.ready, ser).Add(lat)
	if lf != nil && lf.LossProb > 0 && f.lossRNG[link].Float64() < lf.LossProb {
		// The chunk serialized (the link time is spent) but arrived
		// corrupt. Hardware-retry fabrics resend it on this hop after the
		// retry delay; otherwise the loss kills the message and recovery
		// is the transport's business.
		f.faultStats.ChunksLost++
		f.probeLost(link, cs.ready)
		if f.params.HWRetry {
			f.faultStats.ChunksRetried++
			if i == up {
				cs.upLink = -1
			}
			cs.ready = out.Add(f.params.HWRetryDelay)
			f.eng.At(cs.ready, cs.stepFn)
			return
		}
		f.dropMessage(cs)
		return
	}
	cs.i = int32(i + 1)
	if i+1 == int(pt.n) && !f.faultsOn && ms.remaining > 1 {
		ms.remaining--
		f.putChunk(cs)
		return
	}
	// The hop's completions leave srv in FIFO order with the stage's fixed
	// latency, so they queue on its lane; a fault's extra latency can break
	// the order, and the lane then falls back to a plain event.
	cs.ready = out
	srv.Lane().At(out, &cs.lane, cs.stepFn)
}

// account records a chunk of the given size arriving at srv at ready in
// the per-link byte counts and the queueing-delay histogram. Call it only
// with a metrics registry attached; it skips host-bus stages.
func (f *Fabric) account(link topology.LinkID, srv *sim.Server, size units.Bytes, ready units.Time) {
	if link < 0 {
		return
	}
	f.linkBytes[link] += size
	f.observeWait(srv.BusyUntil(), ready)
}

// observeWait records the queueing delay of a chunk arriving at ready at a
// server busy until busy: the difference in whole ns, floored at 0.
func (f *Fabric) observeWait(busy, ready units.Time) {
	if wait := busy.Sub(ready); wait > 0 {
		f.hWait.Observe(int64(wait / units.Nanosecond))
	} else {
		f.hWait.Observe(0)
	}
}

// chunkPlan reports the chunking of a message: n MTU-sized chunks with
// the last one sized last (a zero-size message is one zero-size chunk: a
// bare header). Sizes are derived arithmetically — chunk k is MTU for
// k < n-1 and last for k == n-1 — so no per-message slice is built.
func (f *Fabric) chunkPlan(size units.Bytes) (n int, last units.Bytes) {
	mtu := f.params.MTU
	n = int((size + mtu - 1) / mtu)
	if n == 0 {
		n = 1
	}
	return n, size - units.Bytes(n-1)*mtu
}

// Send injects a message of the given size from src to dst at the current
// simulated time and returns a signal that fires when the final byte has
// been delivered into dst's host memory. Zero-size messages (pure control
// traffic) still pay one packet's serialization and the full route latency.
func (f *Fabric) Send(src, dst int, size units.Bytes) *sim.Signal {
	done := f.eng.NewSignal("msg %d->%d", src, dst)
	f.send(src, dst, size, done, [2]func(){})
	return done
}

// SendThen is Send for a caller that needs no signal: at delivery it
// schedules each of then, in order, exactly as the signal's Fire would
// schedule callbacks registered with OnFire, so every event keeps its key.
// It takes at most two continuations, which the message holds in place;
// Elan's payload pull is the one caller that passes two. A third panics.
func (f *Fabric) SendThen(src, dst int, size units.Bytes, then ...func()) {
	var fns [2]func()
	if copy(fns[:], then) < len(then) {
		panic("fabric: SendThen given a third continuation; a message holds at most two")
	}
	f.send(src, dst, size, nil, fns)
}

// send is Send and SendThen: the message completes by firing done, when it
// is not nil, and by scheduling then.
func (f *Fabric) send(src, dst int, size units.Bytes, done *sim.Signal, then [2]func()) {
	if src == dst {
		panic("fabric: send to self must be handled above the fabric (loopback)")
	}
	if size < 0 {
		panic("fabric: negative message size")
	}
	f.messages++
	f.bytes += size

	ms := f.getMsg()
	ms.done, ms.then = done, then
	f.fillPath(&ms.pt, src, dst)
	n, last := f.chunkPlan(size)
	f.chunks += uint64(n)
	ms.remaining = int32(n)
	ms.size = size
	ms.src, ms.dst, ms.sent = int32(src), int32(dst), f.eng.Now()

	// A window is open only while its message is alone in the fabric, so
	// it materializes before the newcomer is scheduled, whatever its path,
	// and the newcomer's chunks queue behind exactly the traffic the
	// expanded model would have posted.
	if f.open != nil {
		f.open.expand()
	}
	f.inflight++

	if f.inflight == 1 && f.coalesce &&
		(!f.params.Adaptive || ms.pt.upIdx < 0) &&
		!f.pathFaulted(&ms.pt) &&
		f.tryCoalesce(ms, n, last) {
		return
	}

	// One event injects every chunk (see inject). An idle n-chunk message
	// over an m-stage path then costs n·(m-1)+2 events: the injection, one
	// arrival per chunk at each later stage, and the final delivery.
	f.eng.At(f.eng.Now(), ms.injectFn)
}

// MinLatency reports the unloaded one-way latency of a size-byte message
// from src to dst on an otherwise idle fabric. It evaluates the same FIFO
// pipeline recurrence the simulation executes, so on an idle fabric the
// simulated delivery time equals this value exactly. It is a convenience
// for calibration and tests, not a simulation.
func (f *Fabric) MinLatency(src, dst int, size units.Bytes) units.Duration {
	var pt path
	f.fillPath(&pt, src, dst)
	p := f.params
	n, last := f.chunkPlan(size)
	var busy [maxStages]units.Time // service-completion horizon per stage
	var delivered units.Time
	for k := 0; k < n; k++ {
		sz := p.MTU
		if k == n-1 {
			sz = last
		}
		var ready units.Time
		for i := 0; i < int(pt.n); i++ {
			st := f.hop(&pt, i)
			start := ready
			if busy[i] > start {
				start = busy[i]
			}
			busy[i] = start.Add(st.rate.TimeFor(sz + p.PacketOverhead))
			ready = busy[i].Add(st.lat)
		}
		delivered = ready
	}
	return units.Duration(delivered)
}
