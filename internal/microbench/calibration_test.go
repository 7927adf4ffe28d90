package microbench

// Calibration anchors from the paper's text (DESIGN.md §4). These tests pin
// the simulated platform to the published behaviour; if a parameter change
// breaks one of these, the reproduction has drifted.

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/units"
)

func pingAt(t *testing.T, network platform.Network, size units.Bytes) PingPongPoint {
	t.Helper()
	pts, err := PingPong(platform.Options{Network: network}, []units.Bytes{size}, 20)
	if err != nil {
		t.Fatal(err)
	}
	return pts[0]
}

// Anchor: 0-byte MPI latency — Elan-4 ~3.3 us, IB ~6.6 us, ratio ~2x
// ("the average latency for Elan-4 is approximately half of that for
// InfiniBand").
func TestAnchorZeroByteLatency(t *testing.T) {
	elan := pingAt(t, platform.QuadricsElan4, 0).Latency.Microseconds()
	ib := pingAt(t, platform.InfiniBand4X, 0).Latency.Microseconds()
	t.Logf("0B latency: Elan %.2fus, IB %.2fus, ratio %.2f", elan, ib, ib/elan)
	if elan < 2.2 || elan > 4.5 {
		t.Errorf("Elan 0B latency %.2fus outside [2.2, 4.5]", elan)
	}
	if ib < 5.2 || ib > 8.5 {
		t.Errorf("IB 0B latency %.2fus outside [5.2, 8.5]", ib)
	}
	if ratio := ib / elan; ratio < 1.6 || ratio > 2.6 {
		t.Errorf("IB/Elan latency ratio %.2f not ~2", ratio)
	}
}

// Anchor: the IB latency curve jumps sharply between 1 KB and 2 KB
// (RDMA fast path -> channel path), while Elan has no such step.
func TestAnchorIBLatencyStep(t *testing.T) {
	ib1k := pingAt(t, platform.InfiniBand4X, 1*units.KiB).Latency.Microseconds()
	ib2k := pingAt(t, platform.InfiniBand4X, 2*units.KiB).Latency.Microseconds()
	el1k := pingAt(t, platform.QuadricsElan4, 1*units.KiB).Latency.Microseconds()
	el2k := pingAt(t, platform.QuadricsElan4, 2*units.KiB).Latency.Microseconds()
	t.Logf("1K->2K: IB %.2f->%.2fus, Elan %.2f->%.2fus", ib1k, ib2k, el1k, el2k)
	ibJump := ib2k - ib1k
	elJump := el2k - el1k
	if ibJump < 2*elJump {
		t.Errorf("IB step (%.2fus) should dwarf Elan's (%.2fus)", ibJump, elJump)
	}
	if ib2k/ib1k < 1.25 {
		t.Errorf("IB 2K/1K latency ratio %.2f: no visible protocol step", ib2k/ib1k)
	}
}

// Anchor: 8 KB ping-pong bandwidth — Elan 552 MB/s vs IB 249 MB/s
// ("a difference of a factor of two").
func TestAnchor8KBBandwidth(t *testing.T) {
	elan := pingAt(t, platform.QuadricsElan4, 8*units.KiB).Bandwidth.MBpsValue()
	ib := pingAt(t, platform.InfiniBand4X, 8*units.KiB).Bandwidth.MBpsValue()
	t.Logf("8KB ping-pong: Elan %.0f MB/s, IB %.0f MB/s, ratio %.2f", elan, ib, elan/ib)
	if elan < 440 || elan > 680 {
		t.Errorf("Elan 8KB bandwidth %.0f MB/s outside [440, 680] (paper: 552)", elan)
	}
	if ib < 195 || ib > 320 {
		t.Errorf("IB 8KB bandwidth %.0f MB/s outside [195, 320] (paper: 249)", ib)
	}
	if ratio := elan / ib; ratio < 1.6 || ratio > 2.6 {
		t.Errorf("8KB bandwidth ratio %.2f not ~2", ratio)
	}
}

// Anchor: both networks asymptotically approach similar (PCI-X-bound)
// bandwidth at large messages.
func TestAnchorAsymptoticBandwidth(t *testing.T) {
	elan := pingAt(t, platform.QuadricsElan4, 1*units.MiB).Bandwidth.MBpsValue()
	ib := pingAt(t, platform.InfiniBand4X, 1*units.MiB).Bandwidth.MBpsValue()
	t.Logf("1MB ping-pong: Elan %.0f MB/s, IB %.0f MB/s", elan, ib)
	if elan < 750 || elan > 950 {
		t.Errorf("Elan asymptotic %.0f MB/s outside [750, 950]", elan)
	}
	if ib < 650 || ib > 900 {
		t.Errorf("IB asymptotic %.0f MB/s outside [650, 900]", ib)
	}
	if r := elan / ib; r > 1.35 {
		t.Errorf("asymptotic bandwidths should be similar, ratio %.2f", r)
	}
}

// Anchor: IB ping-pong bandwidth collapses at 4 MB (registration-cache
// thrash, "reportedly fixed in subsequent versions of MVAPICH"); Elan does
// not.
func TestAnchor4MBRegistrationThrash(t *testing.T) {
	ib2m := pingAt(t, platform.InfiniBand4X, 2*units.MiB).Bandwidth.MBpsValue()
	ib4m := pingAt(t, platform.InfiniBand4X, 4*units.MiB).Bandwidth.MBpsValue()
	el2m := pingAt(t, platform.QuadricsElan4, 2*units.MiB).Bandwidth.MBpsValue()
	el4m := pingAt(t, platform.QuadricsElan4, 4*units.MiB).Bandwidth.MBpsValue()
	t.Logf("2M->4M: IB %.0f->%.0f MB/s, Elan %.0f->%.0f MB/s", ib2m, ib4m, el2m, el4m)
	if ib4m > 0.75*ib2m {
		t.Errorf("IB 4MB bandwidth %.0f did not collapse vs 2MB %.0f", ib4m, ib2m)
	}
	if el4m < 0.95*el2m {
		t.Errorf("Elan 4MB bandwidth %.0f should not drop vs 2MB %.0f", el4m, el2m)
	}
}

// Anchor: streaming small messages — "Elan-4 achieves over a factor of
// five advantage using the streaming benchmark" at small sizes.
func TestAnchorStreamingSmallMessageRatio(t *testing.T) {
	sizes := []units.Bytes{64, 256}
	el, err := Streaming(platform.Options{Network: platform.QuadricsElan4}, sizes, 16, 12)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := Streaming(platform.Options{Network: platform.InfiniBand4X}, sizes, 16, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range sizes {
		ratio := float64(el[i].Bandwidth) / float64(ib[i].Bandwidth)
		t.Logf("streaming %v: Elan %v, IB %v, ratio %.1f", size, el[i].Bandwidth, ib[i].Bandwidth, ratio)
		if i == 0 && ratio < 4.0 {
			t.Errorf("streaming ratio at %v = %.1f, want >= 4 (paper: >5)", size, ratio)
		}
	}
}

// Anchor: streaming beats ping-pong bandwidth for both networks at moderate
// sizes (pipelining works).
func TestStreamingBeatsPingPong(t *testing.T) {
	for _, network := range platform.Networks {
		pp := pingAt(t, network, 4*units.KiB).Bandwidth
		st, err := Streaming(platform.Options{Network: network}, []units.Bytes{4 * units.KiB}, 16, 12)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s 4KB: pingpong %v, streaming %v", network.Short(), pp, st[0].Bandwidth)
		if st[0].Bandwidth <= pp {
			t.Errorf("%s: streaming (%v) should beat ping-pong (%v)", network, st[0].Bandwidth, pp)
		}
	}
}

// Anchor: b_eff per process declines with job size, and declines faster for
// IB than for Elan (Figure 1(d)).
func TestAnchorBEffScaling(t *testing.T) {
	perProc := func(network platform.Network, ranks int) float64 {
		r, err := BEff(platform.Options{Network: network}, ranks, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		return r.PerProcess.MBpsValue()
	}
	el2, el16 := perProc(platform.QuadricsElan4, 2), perProc(platform.QuadricsElan4, 16)
	ib2, ib16 := perProc(platform.InfiniBand4X, 2), perProc(platform.InfiniBand4X, 16)
	t.Logf("b_eff/proc: Elan 2=%.0f 16=%.0f; IB 2=%.0f 16=%.0f", el2, el16, ib2, ib16)
	if el2 <= ib2 {
		t.Errorf("Elan b_eff (%.0f) should exceed IB (%.0f) at 2 ranks", el2, ib2)
	}
	elDrop := el16 / el2
	ibDrop := ib16 / ib2
	if ibDrop >= elDrop {
		t.Errorf("IB retention (%.2f) should be worse than Elan (%.2f)", ibDrop, elDrop)
	}
}
