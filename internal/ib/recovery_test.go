package ib

import (
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestRetransmitRecoversOutage: a down window shorter than the retry
// budget's reach blackholes the first transmission(s); the RC timer backs
// off, retransmits, and the write eventually completes — with the timeouts
// and retransmissions on the counters.
func TestRetransmitRecoversOutage(t *testing.T) {
	eng := sim.NewEngine()
	fab := testFabric(t, eng, 2)
	net := NewNetwork(eng, fab, DefaultParams())
	fab.EnableFaults(1)
	link := fab.Topology().Injection(0)
	fab.SetLinkFault(link, fabric.LinkFault{Down: true})
	up := units.Time(250 * units.Microsecond)
	eng.At(up, func() { fab.ClearLinkFault(link) })

	delivered := false
	net.HCA(1).SetHandler(func(d Delivery) { delivered = true })
	var doneAt units.Time
	eng.Spawn("sender", func(p *sim.Proc) {
		h := net.HCA(0)
		h.Connect(p, 1)
		p.Wait(h.RDMAWrite(p, 1, 8*units.KiB, nil))
		doneAt = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("write never delivered after the outage lifted")
	}
	if doneAt < up {
		t.Fatalf("completed at %v, before the link recovered at %v", doneAt, up)
	}
	h := net.HCA(0)
	if h.Retransmits == 0 || h.Timeouts == 0 {
		t.Fatalf("retransmits=%d timeouts=%d: recovery left no trace", h.Retransmits, h.Timeouts)
	}
	if h.Retransmits > uint64(DefaultParams().MaxRetries) {
		t.Fatalf("retransmits = %d exceeded the budget yet the run succeeded", h.Retransmits)
	}
}

// TestQPErrorAfterRetryExhaustion: a permanent blackhole burns the whole
// budget and the QP transitions to the error state, failing the run with a
// deterministic error (no stacks, no addresses).
func TestQPErrorAfterRetryExhaustion(t *testing.T) {
	eng := sim.NewEngine()
	fab := testFabric(t, eng, 2)
	net := NewNetwork(eng, fab, DefaultParams())
	fab.EnableFaults(1)
	fab.SetLinkFault(fab.Topology().Injection(0), fabric.LinkFault{Down: true})
	eng.Spawn("sender", func(p *sim.Proc) {
		h := net.HCA(0)
		h.Connect(p, 1)
		p.Wait(h.RDMAWrite(p, 1, 4*units.KiB, nil))
	})
	err := eng.Run()
	if err == nil {
		t.Fatal("run succeeded through a permanent blackhole")
	}
	if !strings.Contains(err.Error(), "QP error") {
		t.Fatalf("error %q does not name the QP error", err)
	}
	h := net.HCA(0)
	want := uint64(DefaultParams().MaxRetries)
	if h.Retransmits != want {
		t.Fatalf("retransmits = %d, want the full budget %d", h.Retransmits, want)
	}
	if h.Timeouts != want+1 {
		t.Fatalf("timeouts = %d, want %d (budget + the final expiry)", h.Timeouts, want+1)
	}
}

// TestRDMAReadRecovers: reads arm recovery on both halves (request and
// response), so a transient outage on the responder's side heals too.
func TestRDMAReadRecovers(t *testing.T) {
	eng := sim.NewEngine()
	fab := testFabric(t, eng, 2)
	net := NewNetwork(eng, fab, DefaultParams())
	fab.EnableFaults(1)
	// Blackhole the response path: node 1's injection link.
	link := fab.Topology().Injection(1)
	fab.SetLinkFault(link, fabric.LinkFault{Down: true})
	eng.At(units.Time(150*units.Microsecond), func() { fab.ClearLinkFault(link) })

	completed := false
	eng.Spawn("reader", func(p *sim.Proc) {
		h := net.HCA(0)
		h.Connect(p, 1)
		p.Wait(h.RDMARead(p, 1, 16*units.KiB, nil))
		completed = true
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatal("read never completed after the outage lifted")
	}
	if net.HCA(0).Retransmits == 0 {
		t.Fatal("no retransmissions recorded for the blackholed response")
	}
}

// TestNoTimersWithoutFaultInjection pins the default-run contract: on a
// fabric without fault injection the recovery machinery is never armed, so
// the event stream (and hence every result) is identical to pre-recovery
// builds. With fault injection armed but no fault active, the timers are
// armed but must never expire: the size-dependent floor keeps even
// multi-MiB transfers from retransmitting on a healthy fabric.
func TestNoTimersWithoutFaultInjection(t *testing.T) {
	for _, armed := range []bool{false, true} {
		for _, size := range []units.Bytes{0, 4 * units.KiB, 64 * units.KiB, units.MiB, 4 * units.MiB} {
			eng := sim.NewEngine()
			fab := testFabric(t, eng, 2)
			net := NewNetwork(eng, fab, DefaultParams())
			if armed {
				fab.EnableFaults(1)
			}
			eng.Spawn("sender", func(p *sim.Proc) {
				h := net.HCA(0)
				h.Connect(p, 1)
				p.Wait(h.RDMAWrite(p, 1, size, nil))
			})
			if err := eng.Run(); err != nil {
				t.Fatalf("armed=%v size=%v: %v", armed, size, err)
			}
			h := net.HCA(0)
			if h.Retransmits != 0 || h.Timeouts != 0 {
				t.Errorf("armed=%v size=%v: recovery machinery fired on a healthy fabric: retransmits=%d timeouts=%d",
					armed, size, h.Retransmits, h.Timeouts)
			}
		}
	}
}

// TestDuplicateDeliverySuppressed: if a retransmission races an original
// that was merely slow (not lost), the completion fires once — the
// requester's dedup swallows the duplicate.
func TestDuplicateDeliverySuppressed(t *testing.T) {
	eng := sim.NewEngine()
	fab := testFabric(t, eng, 2)
	net := NewNetwork(eng, fab, DefaultParams())
	fab.EnableFaults(1)
	// Derate the link hard enough that delivery takes longer than the first
	// RC timeout, without losing anything: the original eventually arrives,
	// and so does the timer-driven duplicate.
	link := fab.Topology().Injection(0)
	fab.SetLinkFault(link, fabric.LinkFault{BandwidthScale: 0.05})

	handlerRuns := 0
	net.HCA(1).SetHandler(func(d Delivery) { handlerRuns++ })
	completions := 0
	eng.Spawn("sender", func(p *sim.Proc) {
		h := net.HCA(0)
		h.Connect(p, 1)
		done := h.RDMAWrite(p, 1, 256*units.KiB, nil)
		done.OnFire(func() { completions++ })
		p.Wait(done)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if completions != 1 {
		t.Fatalf("completion fired %d times", completions)
	}
	if handlerRuns != 1 {
		t.Fatalf("receive handler ran %d times: duplicates must be suppressed", handlerRuns)
	}
	if net.HCA(0).Retransmits == 0 {
		t.Fatal("expected the slow original to trigger at least one retransmission")
	}
	// The duplicate did reach the wire: the fabric carried more messages
	// than the one logical write (dedup is at the requester, not the link).
	if msgs, _ := fab.Stats(); msgs < 2 {
		t.Fatalf("fabric carried %d messages, expected the retransmission on the wire", msgs)
	}
}
