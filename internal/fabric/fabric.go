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
	"strconv"

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
	links  []*sim.Server // indexed by topology.LinkID
	hosts  []*sim.Server // per-node half-duplex PCI bus; nil if disabled

	messages   uint64
	bytes      units.Bytes
	faultStats FaultStats

	// Free lists for the per-message and per-chunk scheduling state, so
	// steady-state Send/chunk traffic allocates nothing. Pool contents
	// never escape the fabric, and every field is reset on get, so reuse
	// cannot leak state across messages.
	freeChunks []*chunkState
	freeMsgs   []*msgState

	// coalesce enables the idle-path fast path: an uncontended message
	// is delivered by one analytically-scheduled event instead of
	// per-chunk cut-through events (see tryCoalesce). Defaults to true
	// exactly when no metrics registry is attached, so instrumented runs
	// always execute the fully-expanded chunk model.
	coalesce bool
	// In-flight message counts per server, keyed the same way stages
	// are: fabric links by LinkID, host buses by node. A window may only
	// form on servers no other in-flight message is using — the lazy
	// chunk model's busy horizon alone cannot reveal traffic that has
	// not reached a stage yet.
	linkUsers []int32
	hostUsers []int32
	// windows holds the active coalescing windows in creation order.
	windows []*window

	// freeWins pools coalescing windows.
	freeWins []*window

	// Fault injection (see fault.go). faultsOn is set by EnableFaults;
	// every hot-path fault check is gated on it so clean runs pay one
	// predictable branch. faults holds the per-link fault state, driven
	// by SetLinkFault events.
	faultsOn  bool
	faults    []LinkFault
	lossRNG   []*rng.Source // per-link loss streams, seeded from faultSeed
	faultSeed uint64

	// probe, when non-nil, receives invariant observations (see probe.go).
	// Installing one pins coalescing off.
	probe *Probe

	// Observability (nil-safe no-ops when the engine has no registry).
	mMsgs        *metrics.Counter
	mBytes       *metrics.Counter
	mChunks      *metrics.Counter
	mLost        *metrics.Counter
	mRetried     *metrics.Counter
	mRerouted    *metrics.Counter
	mMsgsDropped *metrics.Counter
	mFaultWin    *metrics.Counter
	hWait        *metrics.Histogram // per-chunk link queueing delay, ns
	track        *metrics.Track
	linkBytes    []units.Bytes // payload bytes per link; nil when no registry
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
	f := &Fabric{eng: eng, clos: clos, params: params}
	f.links = make([]*sim.Server, clos.NumLinks())
	for i := range f.links {
		f.links[i] = eng.NewServer(fmt.Sprintf("link%d", i))
	}
	if params.HostBandwidth > 0 {
		f.hosts = make([]*sim.Server, nodes)
		for i := range f.hosts {
			f.hosts[i] = eng.NewServer(fmt.Sprintf("pci%d", i))
		}
		f.hostUsers = make([]int32, nodes)
	}
	f.linkUsers = make([]int32, clos.NumLinks())
	f.coalesce = eng.Metrics() == nil
	if reg := eng.Metrics(); reg != nil {
		f.mMsgs = reg.Counter("fabric.messages")
		f.mBytes = reg.Counter("fabric.bytes")
		f.mChunks = reg.Counter("fabric.chunks")
		f.mLost = reg.Counter("fabric.chunks_lost")
		f.mRetried = reg.Counter("fabric.chunks_hw_retried")
		f.mRerouted = reg.Counter("fabric.chunks_rerouted")
		f.mMsgsDropped = reg.Counter("fabric.messages_dropped")
		f.mFaultWin = reg.Counter("fabric.fault_windows")
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

// LinkUtilization reports the utilization of the given link.
func (f *Fabric) LinkUtilization(id topology.LinkID) float64 {
	return f.links[id].Utilization()
}

// FlushMetrics folds end-of-run link statistics into the engine's registry:
// a histogram of per-link utilization (percent), a histogram of per-link
// payload bytes, and a gauge holding the hottest link's utilization. Only
// links that carried traffic are sampled. Histogram adds and gauge maxima
// commute, so a registry shared by parallel sweep jobs stays deterministic.
// No-op when the engine has no registry attached.
func (f *Fabric) FlushMetrics() {
	reg := f.eng.Metrics()
	if reg == nil || f.linkBytes == nil {
		return
	}
	hUtil := reg.Histogram("fabric.link_util_pct")
	hBytes := reg.Histogram("fabric.link_bytes")
	gMax := reg.Gauge("fabric.max_link_util_pct")
	for id, srv := range f.links {
		if f.linkBytes[id] == 0 {
			continue
		}
		pct := srv.Utilization() * 100
		hUtil.Observe(int64(pct))
		hBytes.Observe(int64(f.linkBytes[id]))
		gMax.SetMax(pct)
	}
}

// HostBus exposes the node's PCI bus server so NIC models can charge
// descriptor and doorbell traffic to it. Nil when the host stage is
// disabled.
func (f *Fabric) HostBus(node int) *sim.Server {
	if f.hosts == nil {
		return nil
	}
	return f.hosts[node]
}

// maxStages bounds a path's hop count: host bus, injection, uplink,
// downlink, ejection, host bus.
const maxStages = 6

// stage is one FIFO hop of a message's path.
type stage struct {
	srv  *sim.Server
	rate units.Rate
	lat  units.Duration  // latency paid after serialization on this hop
	link topology.LinkID // -1 for host-bus stages (not a fabric link)
	host int             // node index for host-bus stages, -1 for links
}

// path is the materialized hop list for one message, with the index of the
// uplink stage (-1 if the route does not cross spines) so adaptive fabrics
// can re-choose the spine chunk by chunk. The hop list is a fixed-size
// array so building a path allocates nothing.
type path struct {
	stages  [maxStages]stage
	n       int
	upIdx   int
	srcLeaf int
	dstLeaf int
}

func (pt *path) add(st stage) {
	pt.stages[pt.n] = st
	pt.n++
}

func (f *Fabric) fillPath(pt *path, src, dst int) {
	p := f.params
	clos := f.clos
	pt.n = 0
	pt.upIdx = -1
	pt.srcLeaf, pt.dstLeaf = 0, 0
	if f.hosts != nil {
		pt.add(stage{f.hosts[src], p.HostBandwidth, p.HostLatency, -1, src})
	}
	cross := clos.Levels == 2 && clos.LeafOf(src) != clos.LeafOf(dst)
	inj := clos.Injection(src)
	pt.add(stage{f.links[inj], p.LinkBandwidth, p.WireLatency + p.ChassisLatency, inj, -1})
	if cross {
		pt.srcLeaf, pt.dstLeaf = clos.LeafOf(src), clos.LeafOf(dst)
		spine := 0
		if !p.Adaptive {
			spine = clos.DestSpine(dst)
		}
		pt.upIdx = pt.n
		up, down := clos.Up(pt.srcLeaf, spine), clos.Down(spine, pt.dstLeaf)
		pt.add(stage{f.links[up], p.LinkBandwidth, p.WireLatency + p.ChassisLatency, up, -1})
		pt.add(stage{f.links[down], p.LinkBandwidth, p.WireLatency + p.ChassisLatency, down, -1})
	}
	ej := clos.Ejection(dst)
	pt.add(stage{f.links[ej], p.LinkBandwidth, p.WireLatency, ej, -1})
	if f.hosts != nil {
		pt.add(stage{f.hosts[dst], p.HostBandwidth, p.HostLatency, -1, dst})
	}
}

// addRefs / releaseRefs maintain the per-server in-flight message counts
// for the whole life of a message (Send to final delivery). For adaptive
// spine-crossing paths the counted up/down stages are the spine-0
// placeholders; that is harmless, because windows — the only readers of
// these counts — never form on spine-crossing paths in adaptive fabrics.
func (f *Fabric) addRefs(pt *path) {
	for i := 0; i < pt.n; i++ {
		st := &pt.stages[i]
		if st.link >= 0 {
			f.linkUsers[st.link]++
		} else {
			f.hostUsers[st.host]++
		}
	}
}

func (f *Fabric) releaseRefs(pt *path) {
	for i := 0; i < pt.n; i++ {
		st := &pt.stages[i]
		if st.link >= 0 {
			f.linkUsers[st.link]--
		} else {
			f.hostUsers[st.host]--
		}
	}
}

// leastLoadedSpine returns the spine whose uplink from the given leaf has
// the earliest busy horizon, ties broken toward the lowest index.
func (f *Fabric) leastLoadedSpine(leaf int) int {
	best, bestAt := 0, units.Forever
	for s := 0; s < f.clos.Spines; s++ {
		if at := f.links[f.clos.Up(leaf, s)].BusyUntil(); at < bestAt {
			best, bestAt = s, at
		}
	}
	return best
}

// SetCoalescing forces the idle-path coalescing fast path on or off,
// overriding the default policy (enabled exactly when the engine has no
// metrics registry). Forcing it on with a registry attached has no
// effect: windows are refused whenever per-chunk instruments are live,
// because a coalesced message records no per-chunk samples. Intended for
// tests and A/B measurement; delivery times are identical either way.
func (f *Fabric) SetCoalescing(on bool) { f.coalesce = on }

// msgName renders a message signal's name (for deadlock reports) with a
// single string allocation instead of fmt.Sprintf's boxing and buffers.
func msgName(src, dst int, size units.Bytes) string {
	var b [40]byte
	s := append(b[:0], "msg "...)
	s = strconv.AppendInt(s, int64(src), 10)
	s = append(s, '-', '>')
	s = strconv.AppendInt(s, int64(dst), 10)
	s = append(s, ' ', '(')
	s = strconv.AppendInt(s, int64(size), 10)
	s = append(s, 'B', ')')
	return string(s)
}

// msgState is the per-message bookkeeping, pooled on the fabric so Send
// allocates no tracking state in steady flow.
type msgState struct {
	f         *Fabric
	pt        path
	remaining int
	size      units.Bytes // payload size, for probe retirement reports
	done      *sim.Signal
	// aborted marks a message killed by an unrecovered fault (see
	// dropMessage): its remaining chunks still drain through the fabric,
	// but done never fires.
	aborted bool
}

func (f *Fabric) getMsg() *msgState {
	if n := len(f.freeMsgs); n > 0 {
		ms := f.freeMsgs[n-1]
		f.freeMsgs[n-1] = nil
		f.freeMsgs = f.freeMsgs[:n-1]
		return ms
	}
	return &msgState{f: f}
}

// chunkDelivered retires one chunk; the last one releases the message's
// in-flight refcounts, recycles the state, and fires completion.
func (ms *msgState) chunkDelivered() {
	ms.remaining--
	if ms.remaining > 0 {
		return
	}
	f := ms.f
	f.releaseRefs(&ms.pt)
	done := ms.done
	aborted := ms.aborted
	size := ms.size
	ms.done = nil
	ms.aborted = false
	f.freeMsgs = append(f.freeMsgs, ms)
	if f.probe != nil {
		f.probeRetired(size, aborted, f.eng.Now())
	}
	if !aborted {
		done.Fire()
	}
}

// chunkState carries one in-flight chunk through its path. It is pooled,
// and the two continuations it schedules (stepFn for the next hop,
// deliverFn for final delivery) are bound once at allocation, so the
// per-chunk-per-hop event loop closes over nothing and allocates
// nothing.
type chunkState struct {
	f     *Fabric
	ms    *msgState
	i     int
	size  units.Bytes
	ready units.Time
	// Adaptive per-chunk spine override, chosen when the chunk reaches
	// the uplink stage (nil until then; path stages hold the spine-0
	// placeholder).
	upSrv, downSrv   *sim.Server
	upLink, downLink topology.LinkID
	stepFn           func()
	deliverFn        func()
}

func (f *Fabric) getChunk(ms *msgState, i int, size units.Bytes, ready units.Time) *chunkState {
	var cs *chunkState
	if n := len(f.freeChunks); n > 0 {
		cs = f.freeChunks[n-1]
		f.freeChunks[n-1] = nil
		f.freeChunks = f.freeChunks[:n-1]
	} else {
		cs = &chunkState{f: f}
		cs.stepFn = cs.step
		cs.deliverFn = cs.deliver
	}
	cs.ms, cs.i, cs.size, cs.ready = ms, i, size, ready
	cs.upSrv, cs.downSrv = nil, nil
	return cs
}

// putChunk retires cs into the pool.
func (f *Fabric) putChunk(cs *chunkState) {
	cs.ms = nil
	cs.upSrv, cs.downSrv = nil, nil
	f.freeChunks = append(f.freeChunks, cs)
}

// step is one hop of the lazy cut-through pipeline: the chunk claims the
// stage it has just arrived at, so cross-traffic interleaves correctly
// under contention and adaptive spine choice sees true instantaneous
// load. It runs as the arrival event at cs.ready.
func (cs *chunkState) step() {
	f := cs.f
	pt := &cs.ms.pt
	i := cs.i
	if f.params.Adaptive && i == pt.upIdx && cs.upSrv == nil {
		spine, rerouted := f.chooseSpine(pt.srcLeaf, pt.dstLeaf)
		if rerouted {
			f.faultStats.ChunksRerouted++
			f.mRerouted.Inc()
		}
		cs.upLink = f.clos.Up(pt.srcLeaf, spine)
		cs.downLink = f.clos.Down(spine, pt.dstLeaf)
		cs.upSrv = f.links[cs.upLink]
		cs.downSrv = f.links[cs.downLink]
	}
	st := &pt.stages[i]
	srv, link := st.srv, st.link
	if cs.upSrv != nil {
		if i == pt.upIdx {
			srv, link = cs.upSrv, cs.upLink
		} else if i == pt.upIdx+1 {
			srv, link = cs.downSrv, cs.downLink
		}
	}
	lf := f.linkFault(link)
	if lf != nil && lf.Down {
		if f.params.HWRetry {
			// Link-level stall: retry every HWRetryDelay until the link
			// recovers — or, at the uplink stage, until the next attempt's
			// adaptive choice finds a live spine.
			f.faultStats.ChunksRetried++
			f.mRetried.Inc()
			f.probeStalled(link, cs.ready)
			if i == pt.upIdx {
				cs.upSrv, cs.downSrv = nil, nil
			}
			cs.ready = cs.ready.Add(f.params.HWRetryDelay)
			f.eng.At(cs.ready, cs.stepFn)
			return
		}
		f.faultStats.ChunksLost++
		f.mLost.Inc()
		f.probeLost(link, cs.ready)
		f.dropMessage(cs)
		return
	}
	if f.linkBytes != nil && link >= 0 {
		f.linkBytes[link] += cs.size
		if wait := srv.BusyUntil().Sub(cs.ready); wait > 0 {
			f.hWait.Observe(int64(wait / units.Nanosecond))
		} else {
			f.hWait.Observe(0)
		}
	}
	ser := st.rate.TimeFor(cs.size + f.params.PacketOverhead)
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
		f.mLost.Inc()
		f.probeLost(link, cs.ready)
		if f.params.HWRetry {
			f.faultStats.ChunksRetried++
			f.mRetried.Inc()
			if i == pt.upIdx {
				cs.upSrv, cs.downSrv = nil, nil
			}
			cs.ready = out.Add(f.params.HWRetryDelay)
			f.eng.At(cs.ready, cs.stepFn)
			return
		}
		f.dropMessage(cs)
		return
	}
	if i < pt.n-1 {
		cs.i = i + 1
		cs.ready = out
		f.eng.At(out, cs.stepFn)
		return
	}
	f.eng.At(out, cs.deliverFn)
}

// deliver retires the chunk at its final-delivery time.
func (cs *chunkState) deliver() {
	ms := cs.ms
	cs.f.putChunk(cs)
	ms.chunkDelivered()
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
	if src == dst {
		panic("fabric: send to self must be handled above the fabric (loopback)")
	}
	if size < 0 {
		panic("fabric: negative message size")
	}
	f.messages++
	f.bytes += size
	f.mMsgs.Inc()
	f.mBytes.Add(uint64(size))
	done := f.eng.NewSignal(msgName(src, dst, size))
	if f.track != nil {
		begin := f.eng.Now()
		name := fmt.Sprintf("msg->%d %v", dst, size)
		done.OnFire(func() {
			f.track.Span(sim.TidNode+int64(src), name, "fabric", begin, f.eng.Now())
		})
	}

	ms := f.getMsg()
	ms.done = done
	ms.aborted = false
	f.fillPath(&ms.pt, src, dst)
	n, last := f.chunkPlan(size)
	f.mChunks.Add(uint64(n))
	ms.remaining = n
	ms.size = size

	// Any window sharing a server with this message must materialize
	// before the newcomer is scheduled, so its chunks queue behind
	// exactly the traffic the expanded model would have posted.
	f.expandTouching(&ms.pt)
	f.addRefs(&ms.pt)

	if f.coalesce && f.linkBytes == nil && f.track == nil &&
		(!f.params.Adaptive || ms.pt.upIdx < 0) &&
		!f.pathFaulted(&ms.pt) &&
		f.tryCoalesce(ms, n, last) {
		return done
	}

	now := f.eng.Now()
	mtu := f.params.MTU
	for k := 0; k < n; k++ {
		sz := mtu
		if k == n-1 {
			sz = last
		}
		cs := f.getChunk(ms, 0, sz, now)
		f.eng.At(now, cs.stepFn)
	}
	return done
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
		for i := 0; i < pt.n; i++ {
			st := &pt.stages[i]
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
