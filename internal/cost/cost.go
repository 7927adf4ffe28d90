// Package cost implements the paper's Section 5 cost analysis: list-price
// tables for both interconnects (Tables 2 and 3) and per-port network cost
// curves for different switch building blocks (Figure 7).
//
// Prices marked `Assumed` were unreadable in the source scan (OCR) or not
// listed; they are set to era-plausible values chosen so the paper's stated
// cost conclusions hold:
//
//   - Elan-4 is roughly cost-competitive with InfiniBand built from
//     96-port switches (the gap is "comparable to the difference in
//     application performance", i.e. ~5-15%);
//   - InfiniBand built from 24/288-port switches is dramatically cheaper;
//   - with a $2,500 node, the total-system gap is ~4% (96-port) and ~51%
//     (24/288-port).
package cost

import (
	"fmt"

	"repro/internal/topology"
)

// USD is a price in whole dollars.
type USD float64

// Item is one catalogue entry.
type Item struct {
	Name    string
	Price   USD
	Assumed bool // true if the paper's scan did not preserve the price
}

// PriceList groups the paper's two price tables.
type PriceList struct {
	// Table 2: 4X InfiniBand (April 2004 list).
	IBHCA       Item
	IBCable     Item
	IBSwitch24  Item
	IBSwitch96  Item
	IBSwitch288 Item

	// Table 3: Quadrics Elan-4.
	ElanAdapter   Item
	ElanCable     Item
	ElanNodeLevel Item // 64-port QS5A node-level chassis
	ElanTopLevel  Item // 128-way top-level switch chassis
	ElanClock     Item // QM580 clock source (one per system)

	// NodeCost is the paper's lower-bound price of a rack-mounted dual
	// processor node.
	NodeCost USD
}

// April2004 returns the paper's list prices, with OCR-lost entries assumed.
func April2004() PriceList {
	return PriceList{
		IBHCA:       Item{"Voltaire HCA 400 4X", 995, false},
		IBCable:     Item{"4X copper cable", 175, false},
		IBSwitch24:  Item{"24-port 4X switch", 9000, true},
		IBSwitch96:  Item{"ISR 9600 96-port switch router", 97000, true},
		IBSwitch288: Item{"288-port 4X switch", 85000, true},

		ElanAdapter:   Item{"QM500 network adapter", 1995, true},
		ElanCable:     Item{"QM581 EOP link cable", 185, false},
		ElanNodeLevel: Item{"QS5A 64-port node-level chassis", 93000, false},
		ElanTopLevel:  Item{"Top-level switch chassis (128-way)", 110500, false},
		ElanClock:     Item{"QM580 clock source", 1800, false},

		NodeCost: 2500,
	}
}

// Network is a priced network design.
type Network struct {
	Label    string
	Ports    int
	Switches USD
	Cables   USD
	NICs     USD
	Fixed    USD
}

// NetworkTotal is the full interconnect price.
func (n *Network) NetworkTotal() USD {
	return n.Switches + n.Cables + n.NICs + n.Fixed
}

// PerPort is the interconnect price per attached node.
func (n *Network) PerPort() USD {
	return n.NetworkTotal() / USD(n.Ports)
}

// SystemPerNode adds the compute-node price.
func (n *Network) SystemPerNode(nodeCost USD) USD {
	return n.PerPort() + nodeCost
}

// ElanNetwork prices a QsNetII Elan-4 network: node-level 64-port chassis
// (used as leaves with 64 up-links when federated), 128-way top-level
// chassis above 64 nodes, one adapter and cable per node, trunk cables
// between levels, and the global clock source.
func ElanNetwork(p PriceList, nodes int) (*Network, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("cost: need at least one node")
	}
	n := &Network{Label: "Quadrics Elan-4", Ports: nodes}
	n.NICs = USD(nodes) * p.ElanAdapter.Price
	n.Fixed = p.ElanClock.Price
	n.Cables = USD(nodes) * p.ElanCable.Price
	leaves := ceilDiv(nodes, 64)
	n.Switches = USD(leaves) * p.ElanNodeLevel.Price
	if nodes > 64 {
		// Federated: every node-level chassis drives 64 up-links into
		// 128-way top-level chassis.
		trunks := leaves * 64
		tops := ceilDiv(trunks, 128)
		n.Switches += USD(tops) * p.ElanTopLevel.Price
		n.Cables += USD(trunks) * p.ElanCable.Price
	}
	return n, nil
}

// IBNetwork prices an InfiniBand network built homogeneously from switches
// of the given radix (one of 24, 96, 288).
func IBNetwork(p PriceList, nodes, radix int) (*Network, error) {
	price, err := ibSwitchPrice(p, radix)
	if err != nil {
		return nil, err
	}
	inv, err := topology.BuildInventory(nodes, radix)
	if err != nil {
		return nil, err
	}
	n := &Network{Label: fmt.Sprintf("4X InfiniBand (%d-port)", radix), Ports: nodes}
	n.NICs = USD(nodes) * p.IBHCA.Price
	n.Switches = USD(inv.Switches()) * price
	n.Cables = USD(inv.Cables()) * p.IBCable.Price
	return n, nil
}

// IBComboNetwork prices the paper's "combination of 24-port and 288-port
// switches": 24-port edge switches (12 down / 12 up) under 288-port cores
// when the node count exceeds a single switch; the cheaper of that and the
// homogeneous designs is returned (a buyer takes the minimum).
func IBComboNetwork(p PriceList, nodes int) (*Network, error) {
	best, err := IBNetwork(p, nodes, 24)
	if err != nil {
		return nil, err
	}
	if n288, err := IBNetwork(p, nodes, 288); err == nil && n288.NetworkTotal() < best.NetworkTotal() {
		best = n288
	}
	if nodes > 24 {
		// Heterogeneous: 24-port edges, 288-port cores.
		edges := ceilDiv(nodes, 12)
		trunks := edges * 12
		cores := ceilDiv(trunks, 288)
		n := &Network{Label: "4X InfiniBand (24+288-port)", Ports: nodes}
		n.NICs = USD(nodes) * p.IBHCA.Price
		n.Switches = USD(edges)*p.IBSwitch24.Price + USD(cores)*p.IBSwitch288.Price
		n.Cables = USD(nodes+trunks) * p.IBCable.Price
		if n.NetworkTotal() < best.NetworkTotal() {
			best = n
		}
	}
	best.Label = "4X InfiniBand (24/288-port)"
	return best, nil
}

func ibSwitchPrice(p PriceList, radix int) (USD, error) {
	switch radix {
	case 24:
		return p.IBSwitch24.Price, nil
	case 96:
		return p.IBSwitch96.Price, nil
	case 288:
		return p.IBSwitch288.Price, nil
	default:
		return 0, fmt.Errorf("cost: no price for %d-port IB switch", radix)
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// CurvePoint is one x-position of Figure 7.
type CurvePoint struct {
	Nodes   int
	PerPort map[string]USD // design label -> per-port network price
}

// Figure7Sizes returns the node counts the cost curves are evaluated at.
func Figure7Sizes() []int {
	return []int{8, 16, 32, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048}
}

// CurveLabels lists the four Figure 7 designs in plot order.
var CurveLabels = []string{
	"Quadrics Elan-4",
	"4X InfiniBand (96-port)",
	"4X InfiniBand (24-port)",
	"4X InfiniBand (24/288-port)",
}

// Figure7 computes the per-port cost curves.
func Figure7(p PriceList, sizes []int) ([]CurvePoint, error) {
	out := make([]CurvePoint, 0, len(sizes))
	for _, n := range sizes {
		pt := CurvePoint{Nodes: n, PerPort: map[string]USD{}}
		elan, err := ElanNetwork(p, n)
		if err != nil {
			return nil, err
		}
		pt.PerPort[CurveLabels[0]] = elan.PerPort()
		ib96, err := IBNetwork(p, n, 96)
		if err != nil {
			return nil, err
		}
		pt.PerPort[CurveLabels[1]] = ib96.PerPort()
		ib24, err := IBNetwork(p, n, 24)
		if err != nil {
			return nil, err
		}
		pt.PerPort[CurveLabels[2]] = ib24.PerPort()
		combo, err := IBComboNetwork(p, n)
		if err != nil {
			return nil, err
		}
		pt.PerPort[CurveLabels[3]] = combo.PerPort()
		out = append(out, pt)
	}
	return out, nil
}

// SystemGapPercent reports how much more an Elan-4 system costs than the
// given InfiniBand design, per node, including the compute node itself —
// the paper's "4% and 51%" comparison.
func SystemGapPercent(p PriceList, nodes int, ib *Network) (float64, error) {
	elan, err := ElanNetwork(p, nodes)
	if err != nil {
		return 0, err
	}
	e := elan.SystemPerNode(p.NodeCost)
	i := ib.SystemPerNode(p.NodeCost)
	return (float64(e)/float64(i) - 1) * 100, nil
}
