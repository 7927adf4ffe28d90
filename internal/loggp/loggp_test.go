package loggp

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/microbench"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestMeasureBothNetworks(t *testing.T) {
	params := map[platform.Network]*Params{}
	for _, net := range platform.Networks {
		p, err := Measure(platform.Options{Network: net})
		if err != nil {
			t.Fatal(err)
		}
		if p.L <= 0 || p.O <= 0 || p.Gap <= 0 || p.G <= 0 {
			t.Fatalf("%v: non-positive parameter: %+v", net, p)
		}
		if !strings.Contains(p.String(), net.Short()) {
			t.Fatal("String missing network")
		}
		params[net] = p
		t.Log(p)
	}
	el, ib := params[platform.QuadricsElan4], params[platform.InfiniBand4X]
	// The architectural contrasts as numbers:
	if ib.L <= el.L {
		t.Errorf("IB L (%v) should exceed Elan L (%v): slower NIC pipeline", ib.L, el.L)
	}
	if ib.Gap <= el.Gap {
		t.Errorf("IB gap (%v) should exceed Elan gap (%v): lower message rate", ib.Gap, el.Gap)
	}
	if ratio := float64(ib.Gap) / float64(el.Gap); ratio < 3 {
		t.Errorf("gap ratio %.1f, want >= 3 (streaming anchor)", ratio)
	}
	// G similar: both PCI-X bound.
	if gr := float64(ib.G) / float64(el.G); gr < 0.8 || gr > 1.4 {
		t.Errorf("G ratio %.2f should be near 1 (both PCI-X bound)", gr)
	}
}

func TestPredictionTracksSimulation(t *testing.T) {
	// LogGP is a crude model; predictions should land within 2x of
	// simulated ping-pong for latency-dominated sizes.
	for _, net := range platform.Networks {
		p, err := Measure(platform.Options{Network: net})
		if err != nil {
			t.Fatal(err)
		}
		sizes := []units.Bytes{0, 256, 4 * units.KiB}
		pp, err := microbench.PingPong(platform.Options{Network: net}, sizes, 10)
		if err != nil {
			t.Fatal(err)
		}
		for i, size := range sizes {
			pred := p.PredictLatency(size)
			meas := pp[i].Latency
			ratio := float64(pred) / float64(meas)
			t.Logf("%s %v: predicted %v, simulated %v", net.Short(), size, pred, meas)
			if ratio < 0.4 || ratio > 2.0 {
				t.Errorf("%v size %v: prediction %v vs simulation %v out of 2x band",
					net, size, pred, meas)
			}
		}
	}
}

// TestMeasureCanceled: with its context already canceled, Measure runs no
// simulation to the end and returns an error wrapping sim.ErrCanceled.
func TestMeasureCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, net := range platform.Networks {
		p, err := Measure(platform.Options{Network: net, Ctx: ctx})
		if !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want sim.ErrCanceled wrapping context.Canceled", net, err)
		}
		if p != nil {
			t.Fatalf("%v: canceled Measure returned parameters %v", net, p)
		}
	}
}
