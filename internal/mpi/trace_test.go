package mpi_test

import (
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/units"
)

// TestTraceRecordsLifecycle: a traced send and receive record every
// event kind in time order, and each completion names its peer: the
// source for a receive, the destination for a send. The send paths are
// Elan's NIC, IB eager and rendezvous, and the shared-memory channel.
func TestTraceRecordsLifecycle(t *testing.T) {
	cases := []struct {
		name string
		net  platform.Network
		ppn  int
		size units.Bytes
	}{
		{"elan", platform.QuadricsElan4, 1, 4 * units.KiB},
		{"ib-eager", platform.InfiniBand4X, 1, 4 * units.KiB},
		{"ib-rndv", platform.InfiniBand4X, 1, 256 * units.KiB},
		{"shm", platform.InfiniBand4X, 2, 4 * units.KiB},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := build(t, c.net, 2, c.ppn)
			m.World.EnableTrace(1000)
			_, err := m.Run(func(r *mpi.Rank) {
				if r.ID() == 0 {
					r.Compute(10*units.Microsecond, 0)
					r.Send(1, 42, c.size)
				} else {
					r.Recv(0, 42)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			events, total := m.World.Trace()
			if total == 0 || len(events) == 0 {
				t.Fatal("no trace events")
			}
			kinds := map[mpi.EventKind]int{}
			var prev units.Time
			for _, e := range events {
				kinds[e.Kind]++
				if e.At < prev {
					t.Fatal("trace not time-ordered")
				}
				prev = e.At
				switch e.Kind {
				case mpi.EvSendDone:
					if e.Rank != 0 || e.Peer != 1 {
						t.Errorf("send-done on rank %d names peer %d, want rank 0 naming its destination 1", e.Rank, e.Peer)
					}
				case mpi.EvRecvDone:
					if e.Rank != 1 || e.Peer != 0 {
						t.Errorf("recv-done on rank %d names peer %d, want rank 1 naming its source 0", e.Rank, e.Peer)
					}
				}
			}
			for _, want := range []mpi.EventKind{
				mpi.EvSendPost, mpi.EvRecvPost, mpi.EvSendDone, mpi.EvRecvDone,
				mpi.EvComputeBegin, mpi.EvComputeEnd,
			} {
				if kinds[want] == 0 {
					t.Errorf("missing %v events", want)
				}
			}
			text := mpi.FormatTrace(events)
			if !strings.Contains(text, "send-post") || !strings.Contains(text, "tag=42") {
				t.Fatalf("formatting broken:\n%s", text)
			}
		})
	}
}

// TestTestAndWaitanyTraceDone: a request completed by Test or Waitany
// writes its done event, naming its peer and tag, as one completed by
// Wait does.
func TestTestAndWaitanyTraceDone(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		m := build(t, net, 2, 1)
		m.World.EnableTrace(1000)
		_, err := m.Run(func(r *mpi.Rank) {
			if r.ID() == 0 {
				q := r.Isend(1, 7, 64)
				for !r.Test(q) {
				}
				r.Waitany(r.Irecv(1, 8))
			} else {
				r.Recv(0, 7)
				r.Send(0, 8, 64)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		events, _ := m.World.Trace()
		done := map[mpi.EventKind][]mpi.TraceEvent{}
		for _, e := range events {
			if e.Rank == 0 && (e.Kind == mpi.EvSendDone || e.Kind == mpi.EvRecvDone) {
				done[e.Kind] = append(done[e.Kind], e)
			}
		}
		if s := done[mpi.EvSendDone]; len(s) != 1 || s[0].Peer != 1 || s[0].Tag != 7 {
			t.Errorf("rank 0 send-done events after Test: %+v, want one naming peer 1, tag 7", s)
		}
		if s := done[mpi.EvRecvDone]; len(s) != 1 || s[0].Peer != 1 || s[0].Tag != 8 {
			t.Errorf("rank 0 recv-done events after Waitany: %+v, want one naming peer 1, tag 8", s)
		}
	})
}

func TestTraceRingKeepsNewest(t *testing.T) {
	m := build(t, platform.InfiniBand4X, 2, 1)
	m.World.EnableTrace(8)
	_, err := m.Run(func(r *mpi.Rank) {
		peer := 1 - r.ID()
		for i := 0; i < 10; i++ {
			r.Sendrecv(peer, i, 64, peer, i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	events, total := m.World.Trace()
	if len(events) != 8 {
		t.Fatalf("retained %d events, want 8", len(events))
	}
	if total <= 8 {
		t.Fatalf("total = %d, expected far more than the ring", total)
	}
	// Retained events must be the newest: their times not before any
	// dropped event... cheap proxy: ordered and nonzero.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("ring unwrap broke ordering")
		}
	}
}

func TestTraceDisabledIsFree(t *testing.T) {
	m := build(t, platform.QuadricsElan4, 2, 1)
	_, err := m.Run(func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 64)
		} else {
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if evs, total := m.World.Trace(); evs != nil || total != 0 {
		t.Fatal("trace should be empty when disabled")
	}
}
