package fabric

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// refFabric is the reference model every fast path of the chunk model is
// checked against: DESIGN §5 item 3 written as plainly as possible. A
// message is cut into MTU-sized chunks. Each chunk crosses the FIFO servers
// of its path one event per stage, and its delivery is one more event; the
// message is delivered with its last chunk. There are no lanes, trains,
// coalescing windows or early retirement, and paths come from
// topology.Clos and Params, not from fillPath or MinLatency.
//
// It also records what a metrics registry records of the chunk model: the
// payload bytes each link carries, and each chunk's wait at each link
// stage, the server's BusyUntil at its arrival less the arrival, in whole
// ns and floored at 0.
type refFabric struct {
	eng       *sim.Engine
	clos      *topology.Clos
	p         Params
	links     []*sim.Server // by topology.LinkID
	hosts     []*sim.Server // PCI bus per node; nil without a host stage
	reg       *metrics.Registry
	waits     *metrics.Histogram // in reg, under the fabric's name
	linkBytes []units.Bytes      // by topology.LinkID
}

func newRefFabric(t *testing.T, eng *sim.Engine, nodes, radix int, p Params) *refFabric {
	t.Helper()
	clos, err := topology.NewClos(nodes, radix)
	if err != nil {
		t.Fatal(err)
	}
	r := &refFabric{eng: eng, clos: clos, p: p, reg: metrics.New(),
		linkBytes: make([]units.Bytes, clos.NumLinks())}
	r.waits = r.reg.Histogram(waitHist)
	for i := 0; i < clos.NumLinks(); i++ {
		r.links = append(r.links, eng.NewServer())
	}
	if p.HostBandwidth > 0 {
		for i := 0; i < nodes; i++ {
			r.hosts = append(r.hosts, eng.NewServer())
		}
	}
	return r
}

func (r *refFabric) HostBus(node int) *sim.Server {
	if r.hosts == nil {
		return nil
	}
	return r.hosts[node]
}

// refMsg is one message: its endpoints, how many of its chunks are not yet
// delivered, and the signal its last delivery fires.
type refMsg struct {
	src, dst int
	left     int
	done     *sim.Signal
}

// refChunk is one chunk of m. route holds the links it crosses; until an
// adaptive fabric picks the chunk's spine at the uplink, a spine-crossing
// route holds spine 0's.
type refChunk struct {
	m     *refMsg
	size  units.Bytes
	route []topology.LinkID
}

// Send cuts the message into chunks, each arriving at the first stage now
// in its own event. A zero-size message is one zero-size chunk.
func (r *refFabric) Send(src, dst int, size units.Bytes) *sim.Signal {
	m := &refMsg{src: src, dst: dst, done: r.eng.NewSignal("ref msg")}
	route := r.clos.RouteVia(src, dst, r.clos.DestSpine(dst)).Links
	for off := units.Bytes(0); off == 0 || off < size; off += r.p.MTU {
		c := &refChunk{m: m, size: min(r.p.MTU, size-off), route: route}
		m.left++
		r.eng.At(r.eng.Now(), func() { r.arrive(c, 0) })
	}
	return m.done
}

// stages is the length of c's path: the links of its route, plus the two
// PCI buses when the fabric has a host stage.
func (r *refFabric) stages(c *refChunk) int {
	if r.hosts != nil {
		return len(c.route) + 2
	}
	return len(c.route)
}

// arrive is chunk c's arrival at stage i: it queues for the stage's server
// and arrives at the next stage once served there and the stage's latency
// has passed. Arriving past the last stage is its delivery.
func (r *refFabric) arrive(c *refChunk, i int) {
	if i == r.stages(c) {
		c.m.left--
		if c.m.left == 0 {
			c.m.done.Fire()
		}
		return
	}
	srv, link, ser, lat := r.stage(c, i)
	if link >= 0 {
		r.linkBytes[link] += c.size
		r.waits.Observe(max(0, int64(srv.BusyUntil().Sub(r.eng.Now())/units.Nanosecond)))
	}
	out := srv.Serve(ser).Add(lat)
	r.eng.At(out, func() { r.arrive(c, i+1) })
}

// stage returns the server of c's stage i, its link (-1 for a PCI bus),
// c's service time there, and the latency it pays after service.
func (r *refFabric) stage(c *refChunk, i int) (srv *sim.Server, link topology.LinkID, ser, lat units.Duration) {
	bytes := c.size + r.p.PacketOverhead
	if r.hosts != nil {
		switch i {
		case 0:
			return r.hosts[c.m.src], -1, r.p.HostBandwidth.TimeFor(bytes), r.p.HostLatency
		case len(c.route) + 1:
			return r.hosts[c.m.dst], -1, r.p.HostBandwidth.TimeFor(bytes), r.p.HostLatency
		}
		i--
	}
	if i == 1 && len(c.route) == 4 && r.p.Adaptive {
		c.route = r.clos.RouteVia(c.m.src, c.m.dst, r.leastLoadedSpine(c.m.src)).Links
	}
	// Every link is a cable; all but the ejection cable end in a chassis.
	lat = r.p.WireLatency
	if i < len(c.route)-1 {
		lat += r.p.ChassisLatency
	}
	link = c.route[i]
	return r.links[link], link, r.p.LinkBandwidth.TimeFor(bytes), lat
}

// leastLoadedSpine is adaptive routing: the spine whose uplink from src's
// leaf frees up first, ties to the lowest index.
func (r *refFabric) leastLoadedSpine(src int) int {
	leaf, best := r.clos.LeafOf(src), 0
	for s := 1; s < r.clos.Spines; s++ {
		if r.links[r.clos.Up(leaf, s)].BusyUntil() < r.links[r.clos.Up(leaf, best)].BusyUntil() {
			best = s
		}
	}
	return best
}

// runReference runs a storm on the reference model.
func runReference(t *testing.T, c stormFabric, gen storm, seed uint64) stormOutcome {
	t.Helper()
	eng := sim.NewEngine()
	r := newRefFabric(t, eng, c.nodes, c.radix, c.params)
	var out stormOutcome
	gen(eng, r, c.params, c.nodes, seed, &out)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	out.account(eng, r.links, r.hosts)
	out.observe(r.reg, r.linkBytes)
	return out
}

// referenceMode is a fault-free production mode compared with the
// reference model.
type referenceMode struct {
	name  string
	setup func(f *Fabric)
}

var (
	// coalescingModes run the default path, coalescing windows on, and the
	// expanded per-chunk path with coalescing off.
	coalescingModes = []referenceMode{
		{"default", func(*Fabric) {}},
		{"chunked", func(f *Fabric) { f.coalesce = false }},
	}
	// armedModes arm faults and install none: every chunk keeps its
	// delivery event, where the other modes retire all but the last early.
	armedModes = []referenceMode{
		{"armed", func(f *Fabric) { f.EnableFaults(1) }},
		{"armed/chunked", func(f *Fabric) { f.coalesce = false; f.EnableFaults(1) }},
	}
)

// checkReference runs a storm on each fabric, seeds 1..seeds, through the
// reference and through production in each mode. Every message must be
// delivered at the reference's time and in its order, same-picosecond
// ties included, the run must end at its clock, and every server must end
// with its BusyUntil, BusyTotal and Served.
//
// Each storm also runs once in the default mode with a registry attached.
// Besides the outcome, its chunk-wait histogram and per-link payload bytes
// must equal the reference's, so what coalescing windows record of the
// chunks they stand in for is checked chunk by chunk.
func checkReference(t *testing.T, gen storm, fabrics []stormFabric, seeds uint64, modes []referenceMode) {
	for _, c := range fabrics {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= seeds; seed++ {
				want := runReference(t, c, gen, seed)
				for _, mode := range modes {
					got := runFabric(t, c, gen, seed, nil, mode.setup)
					requireSameDelivery(t, seed, got, want, mode.name)
				}
				got := runFabric(t, c, gen, seed, metrics.New(), func(*Fabric) {})
				requireSameDelivery(t, seed, got, want, "observed")
				if !reflect.DeepEqual(got.waits, want.waits) {
					t.Fatalf("seed %d: chunk waits\n%+v observed,\n%+v in the reference", seed, got.waits, want.waits)
				}
				if !slices.Equal(got.linkBytes, want.linkBytes) {
					t.Fatalf("seed %d: link bytes\n%v observed,\n%v in the reference", seed, got.linkBytes, want.linkBytes)
				}
			}
		})
	}
}

// requireSameDelivery fails the test unless a production run of one seed,
// in the named mode, had the reference's outcome and delivery order.
func requireSameDelivery(t *testing.T, seed uint64, got, want stormOutcome, mode string) {
	t.Helper()
	requireSameOutcome(t, seed, got, want, mode, "reference")
	if !slices.Equal(got.order, want.order) {
		t.Fatalf("seed %d: messages delivered in order\n%v %s,\n%v in the reference",
			seed, got.order, mode, want.order)
	}
}

// TestCoalescingExact checks coalescing windows, the injection event,
// trains and early retirement against the reference model: on every
// experiment fabric the contending storm runs with coalescing on and off.
func TestCoalescingExact(t *testing.T) {
	checkReference(t, runStorm, experimentFabrics(), 4, coalescingModes)
}

// TestEarlyRetirementExact checks the other side of the faults-off
// delivery rule against the reference model: with faults armed and none
// installed every chunk keeps its delivery event, and on every experiment
// fabric the storm must still deliver at the reference's times.
func TestEarlyRetirementExact(t *testing.T) {
	checkReference(t, runStorm, experimentFabrics(), 4, armedModes)
}

// TestTrainKeysExact runs the tie storms, built for same-picosecond ties
// between train and lane entries, through the reference model and every
// fault-free production mode: the two-destination tie storm on the tie
// fabrics, and the random-destination one, under "random/", on the tie
// fabrics and every experiment fabric.
func TestTrainKeysExact(t *testing.T) {
	modes := append(slices.Clone(coalescingModes), armedModes...)
	checkReference(t, tieStorm, tieFabrics(), 8, modes)
	var random []stormFabric
	for _, c := range append(tieFabrics(), experimentFabrics()...) {
		c.name = "random/" + c.name
		random = append(random, c)
	}
	checkReference(t, randomTieStorm, random, 20, modes)
}
