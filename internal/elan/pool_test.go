package elan

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/units"
)

// txResult is what one send and its receive did: when each completed,
// the receive's status, and the run's event count and key digest.
type txResult struct {
	txAt, rxAt units.Time
	rx         Recv
	events     uint64
	digest     uint64
	net        *Network
}

// txRun sends size bytes from rank 0 to rank 1, the receive posted at once
// (before the envelope arrives) or, with late set, long after the envelope
// has arrived. With then set it uses TxPostThen and RxPostThen, else
// TxPost and RxPost with one OnFire callback each.
func txRun(t *testing.T, size units.Bytes, late, then bool) txResult {
	t.Helper()
	eng := sim.NewEngine()
	res := txResult{txAt: -1, rxAt: -1, net: testNet(t, eng, 2)}
	nic0, nic1 := res.net.NIC(0), res.net.NIC(1)
	txDone := func() { res.txAt = eng.Now() }
	rxDone := func() { res.rxAt = eng.Now() }
	var rx *Recv
	eng.Spawn("send", func(p *sim.Proc) {
		if then {
			nic0.TxPostThen(p, 0, 1, env(0, 5), size, "payload", txDone)
			return
		}
		nic0.TxPost(p, 0, 1, env(0, 5), size, "payload").OnFire(txDone)
	})
	eng.Spawn("recv", func(p *sim.Proc) {
		if late {
			p.Sleep(100 * units.Microsecond)
		}
		if then {
			rx = &Recv{}
			nic1.RxPostThen(p, 1, env(0, 5), rx, rxDone)
			return
		}
		rx = nic1.RxPost(p, 1, env(0, 5))
		rx.Done.OnFire(rxDone)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	res.rx = *rx
	res.events, res.digest = eng.Events(), sim.KeyDigest(eng)
	return res
}

// TestThenPathMatchesSignalPath: for an eager and a rendezvous send, with
// the receive posted before the envelope arrives and after, TxPost+RxPost
// and TxPostThen+RxPostThen complete the send and the receive at the same
// times, with the same events in the same order. Both paths put the send's
// message back on the source NIC's pool, holding neither a signal nor a
// continuation. An envelopeMsg stays within 128 bytes and a Recv within 56.
func TestThenPathMatchesSignalPath(t *testing.T) {
	if size := unsafe.Sizeof(envelopeMsg{}); size > 128 {
		t.Fatalf("envelopeMsg is %d bytes, want at most 128", size)
	}
	if size := unsafe.Sizeof(Recv{}); size > 56 {
		t.Fatalf("Recv is %d bytes, want at most 56", size)
	}
	for _, size := range []units.Bytes{1 * units.KiB, 64 * units.KiB} {
		for _, late := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/late=%v", size, late), func(t *testing.T) {
				sig, then := txRun(t, size, late, false), txRun(t, size, late, true)
				if then.txAt < 0 || then.rxAt < 0 {
					t.Fatalf("continuation path: send done at %v, receive at %v", then.txAt, then.rxAt)
				}
				if u := then.net.NIC(1).Unexpected; (u == 1) != late {
					t.Fatalf("%d unexpected arrivals with the receive posted late=%v", u, late)
				}
				if sig.txAt != then.txAt || sig.rxAt != then.rxAt {
					t.Errorf("send done at %v, receive at %v with signals; %v and %v with then",
						sig.txAt, sig.rxAt, then.txAt, then.rxAt)
				}
				if sig.events != then.events || sig.digest != then.digest {
					t.Errorf("%d events, digest %016x with signals; %d, %016x with then",
						sig.events, sig.digest, then.events, then.digest)
				}
				if sig.rx.Src != 0 || sig.rx.Size != size || then.rx.Src != 0 || then.rx.Size != size {
					t.Errorf("receive status %+v with signals, %+v with then", sig.rx, then.rx)
				}
				for _, r := range []struct {
					path string
					txResult
				}{{"signal", sig}, {"continuation", then}} {
					path, nic := r.path, r.net.NIC(0)
					if n := nic.freeMsgs.Len(); n != 1 {
						t.Errorf("%s path left %d messages on the pool, want 1", path, n)
					}
					for msg := nic.freeMsgs.Get(); msg != nil; msg = nic.freeMsgs.Get() {
						if msg.txDone != nil || msg.then != nil || msg.rx != nil {
							t.Errorf("%s path pooled a message holding a signal, a continuation or a receive", path)
						}
					}
				}
			})
		}
	}
}

// BenchmarkStreamingTxPost is a window of nonblocking rendezvous sends at
// the NIC's level: rank 0 posts sixteen 64 KiB sends back to back on the
// continuation path, rank 1 their receives, so all sixteen are in flight
// at once. Each op builds a fresh 2-node network, so B/op counts the
// message, fabric message and chunk states the stream needs; the
// receive records are the caller's and are reused.
func BenchmarkStreamingTxPost(b *testing.B) {
	b.ReportAllocs()
	var rx [16]Recv
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := testNet(b, eng, 2)
		eng.Spawn("send", func(p *sim.Proc) {
			for k := 0; k < 16; k++ {
				net.NIC(0).TxPostThen(p, 0, 1, env(0, k), 64*units.KiB, nil, nil)
			}
		})
		eng.Spawn("recv", func(p *sim.Proc) {
			for k := range rx {
				net.NIC(1).RxPostThen(p, 1, env(0, k), &rx[k], nil)
			}
		})
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
