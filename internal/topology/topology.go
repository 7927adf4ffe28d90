// Package topology models folded-Clos (fat-tree) networks: the structure
// both QsNetII and InfiniBand clusters of the paper's era were built from.
//
// The package is pure math — no simulation state — so it serves two masters:
//
//   - internal/fabric instantiates one link server per topology link and
//     asks for routes;
//   - internal/cost counts switches and cables to price a network.
//
// The simulated fabric uses chassis-level modelling: a "switch" here is a
// whole chassis (e.g. a 96-port ISR 9600 or a 64-port QS5A node-level
// switch) whose internal stages are folded into a per-chassis traversal
// latency. A chassis has Radix ports. Networks larger than one chassis are
// built as a two-level folded Clos of chassis: leaves use half their ports
// down (k = Radix/2) and half up; spines use all ports down. Capacity is
// therefore Radix²/2 nodes, which covers every experiment in this
// repository (the largest direct simulation is 1024 nodes).
package topology

import "fmt"

// Clos describes a one- or two-level folded-Clos network of identical
// chassis.
type Clos struct {
	Nodes  int // attached compute endpoints
	Radix  int // ports per chassis
	Levels int // 1 (single chassis) or 2 (leaf/spine)
	K      int // uplinks per leaf = Radix/2 (Levels==2 only)
	Leaves int
	Spines int
}

// NewClos plans a network connecting nodes endpoints with chassis of the
// given radix.
func NewClos(nodes, radix int) (*Clos, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("topology: need at least 1 node, got %d", nodes)
	}
	if radix < 2 || radix%2 != 0 {
		return nil, fmt.Errorf("topology: radix must be even and >= 2, got %d", radix)
	}
	c := &Clos{Nodes: nodes, Radix: radix}
	if nodes <= radix {
		c.Levels = 1
		c.Leaves = 1
		return c, nil
	}
	c.K = radix / 2
	if max := radix * c.K; nodes > max {
		return nil, fmt.Errorf("topology: %d nodes exceeds two-level capacity %d of radix-%d chassis", nodes, max, radix)
	}
	c.Levels = 2
	c.Leaves = ceilDiv(nodes, c.K)
	c.Spines = c.K
	return c, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// LeafOf returns the leaf chassis index serving the node.
func (c *Clos) LeafOf(node int) int {
	c.checkNode(node)
	if c.Levels == 1 {
		return 0
	}
	return node / c.K
}

func (c *Clos) checkNode(node int) {
	if node < 0 || node >= c.Nodes {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", node, c.Nodes))
	}
}

// ChassisHops returns the number of chassis a packet from src to dst
// traverses: 1 if they share a leaf (or the network is a single chassis),
// else 3 (leaf, spine, leaf). src == dst is a model error.
func (c *Clos) ChassisHops(src, dst int) int {
	c.checkNode(src)
	c.checkNode(dst)
	if src == dst {
		panic("topology: route to self")
	}
	if c.Levels == 1 || c.LeafOf(src) == c.LeafOf(dst) {
		return 1
	}
	return 3
}

// LinkID identifies one unidirectional link in the network.
//
// Links are enumerated as:
//
//	injection  node -> leaf      id = node
//	ejection   leaf -> node      id = N + node
//	up         leaf l -> spine s id = 2N + l*K + s
//	down       spine s -> leaf l id = 2N + Leaves*K + s*Leaves + l
type LinkID int

// NumLinks reports the total number of unidirectional links.
func (c *Clos) NumLinks() int {
	n := 2 * c.Nodes
	if c.Levels == 2 {
		n += 2 * c.Leaves * c.K
	}
	return n
}

// Injection returns the node's NIC->leaf link.
func (c *Clos) Injection(node int) LinkID {
	c.checkNode(node)
	return LinkID(node)
}

// Ejection returns the node's leaf->NIC link.
func (c *Clos) Ejection(node int) LinkID {
	c.checkNode(node)
	return LinkID(c.Nodes + node)
}

// Up returns the link from leaf l to spine s.
func (c *Clos) Up(l, s int) LinkID {
	c.checkLeafSpine(l, s)
	return LinkID(2*c.Nodes + l*c.K + s)
}

// Down returns the link from spine s to leaf l.
func (c *Clos) Down(s, l int) LinkID {
	c.checkLeafSpine(l, s)
	return LinkID(2*c.Nodes + c.Leaves*c.K + s*c.Leaves + l)
}

func (c *Clos) checkLeafSpine(l, s int) {
	if c.Levels != 2 {
		panic("topology: no spine links in a single-chassis network")
	}
	if l < 0 || l >= c.Leaves || s < 0 || s >= c.Spines {
		panic(fmt.Sprintf("topology: leaf %d / spine %d out of range", l, s))
	}
}

// SpineLinks lists every link touching spine s: the up links from each
// leaf into it and its down links back out. For fault plans that take a
// whole spine chassis offline.
func (c *Clos) SpineLinks(s int) []LinkID {
	if c.Levels != 2 {
		return nil
	}
	out := make([]LinkID, 0, 2*c.Leaves)
	for l := 0; l < c.Leaves; l++ {
		out = append(out, c.Up(l, s), c.Down(s, l))
	}
	return out
}

// Route is the ordered list of links a message traverses, plus the number
// of chassis crossed (for per-chassis latency accounting).
type Route struct {
	Links       []LinkID
	ChassisHops int
}

// RouteVia computes the path from src to dst using the given spine (ignored
// for intra-leaf routes). Spine selection policy belongs to the caller: the
// InfiniBand model uses deterministic destination routing while the Elan
// model picks adaptively.
func (c *Clos) RouteVia(src, dst, spine int) Route {
	hops := c.ChassisHops(src, dst)
	if hops == 1 {
		return Route{
			Links:       []LinkID{c.Injection(src), c.Ejection(dst)},
			ChassisHops: 1,
		}
	}
	ls, ld := c.LeafOf(src), c.LeafOf(dst)
	return Route{
		Links: []LinkID{
			c.Injection(src),
			c.Up(ls, spine),
			c.Down(spine, ld),
			c.Ejection(dst),
		},
		ChassisHops: 3,
	}
}

// DestSpine implements destination-based deterministic routing (the static
// linear-forwarding-table style InfiniBand subnet managers install).
func (c *Clos) DestSpine(dst int) int {
	if c.Levels != 2 {
		return 0
	}
	return dst % c.Spines
}

// UpLinksFrom lists the candidate up links (one per spine) from the leaf
// serving src, for adaptive routing policies.
func (c *Clos) UpLinksFrom(src int) []LinkID {
	if c.Levels != 2 {
		return nil
	}
	l := c.LeafOf(src)
	out := make([]LinkID, c.Spines)
	for s := range out {
		out[s] = c.Up(l, s)
	}
	return out
}
