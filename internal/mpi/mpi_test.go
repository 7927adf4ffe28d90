package mpi_test

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/units"
)

// build constructs a machine or fails the test.
func build(t *testing.T, net platform.Network, ranks, ppn int) *platform.Machine {
	t.Helper()
	m, err := platform.New(platform.Options{Network: net, Ranks: ranks, PPN: ppn})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// onBoth runs the test body for each network.
func onBoth(t *testing.T, fn func(t *testing.T, net platform.Network)) {
	t.Helper()
	for _, net := range platform.Networks {
		net := net
		t.Run(net.Short(), func(t *testing.T) { fn(t, net) })
	}
}

func TestPingPongCompletes(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		m := build(t, net, 2, 1)
		res, err := m.Run(func(r *mpi.Rank) {
			for i := 0; i < 10; i++ {
				if r.ID() == 0 {
					r.Send(1, 7, 1024)
					r.Recv(1, 8)
				} else {
					r.Recv(0, 7)
					r.Send(0, 8, 1024)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Elapsed <= 0 {
			t.Fatal("no time elapsed")
		}
	})
}

func TestPayloadIntegrityAcrossSizes(t *testing.T) {
	// Push real data through every protocol tier: RDMA eager, channel
	// eager, rendezvous.
	onBoth(t, func(t *testing.T, net platform.Network) {
		sizes := []units.Bytes{0, 1, 512, 1024, 2048, 8192, 64 * units.KiB, 1 * units.MiB}
		m := build(t, net, 2, 1)
		_, err := m.Run(func(r *mpi.Rank) {
			for i, size := range sizes {
				want := fmt.Sprintf("payload-%d", i)
				if r.ID() == 0 {
					r.SendPayload(1, i, size, want)
				} else {
					st := r.Recv(0, i)
					if st.Payload != want || st.Size != size || st.Src != 0 || st.Tag != i {
						t.Errorf("size %v: status %+v", size, st)
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestNonOvertakingOrder(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		m := build(t, net, 2, 1)
		const n = 50
		_, err := m.Run(func(r *mpi.Rank) {
			if r.ID() == 0 {
				for i := 0; i < n; i++ {
					// Mix sizes so protocols interleave (eager vs rendezvous).
					size := units.Bytes(64)
					if i%3 == 0 {
						size = 64 * units.KiB
					}
					r.Wait(r.IsendPayload(1, 5, size, i))
				}
			} else {
				for i := 0; i < n; i++ {
					st := r.Recv(0, 5)
					if st.Payload != i {
						t.Errorf("message %d arrived out of order: got %v", i, st.Payload)
						return
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestUnexpectedMessages(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		m := build(t, net, 2, 1)
		_, err := m.Run(func(r *mpi.Rank) {
			if r.ID() == 0 {
				// Send before any receive is posted; include a rendezvous.
				r.SendPayload(1, 1, 256, "small")
				r.Wait(r.IsendPayload(1, 2, 128*units.KiB, "big"))
			} else {
				r.Compute(50*units.Microsecond, 0) // let messages land unexpected
				if st := r.Recv(0, 1); st.Payload != "small" {
					t.Errorf("unexpected small: %+v", st)
				}
				if st := r.Recv(0, 2); st.Payload != "big" {
					t.Errorf("unexpected big: %+v", st)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		m := build(t, net, 2, 1)
		_, err := m.Run(func(r *mpi.Rank) {
			if r.ID() == 0 {
				r.SendPayload(1, 10, 64, "ten")
				r.SendPayload(1, 20, 64, "twenty")
			} else {
				// Receive in reverse tag order.
				if st := r.Recv(0, 20); st.Payload != "twenty" {
					t.Errorf("tag 20: %+v", st)
				}
				if st := r.Recv(0, 10); st.Payload != "ten" {
					t.Errorf("tag 10: %+v", st)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestIntraNodeShm(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		m := build(t, net, 2, 2) // both ranks on one node
		_, err := m.Run(func(r *mpi.Rank) {
			if r.ID() == 0 {
				r.SendPayload(1, 0, 32*units.KiB, "intranode")
				r.Recv(1, 1)
			} else {
				if st := r.Recv(0, 0); st.Payload != "intranode" {
					t.Errorf("shm payload: %+v", st)
				}
				r.Send(0, 1, 64)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestMixedIntraInterNode(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		m := build(t, net, 4, 2) // nodes: {0,1}, {2,3}
		_, err := m.Run(func(r *mpi.Rank) {
			// Ring: each rank sends to (id+1)%4: mixes shm and network.
			next := (r.ID() + 1) % 4
			prev := (r.ID() + 3) % 4
			st := r.Sendrecv(next, 0, 4*units.KiB, prev, 0)
			if st.Src != prev {
				t.Errorf("rank %d: got src %d want %d", r.ID(), st.Src, prev)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestSendToSelf(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		m := build(t, net, 2, 1)
		_, err := m.Run(func(r *mpi.Rank) {
			if r.ID() == 0 {
				sreq := r.IsendPayload(0, 3, 128, "self")
				st := r.Recv(0, 3)
				r.Wait(sreq)
				if st.Payload != "self" {
					t.Errorf("self message: %+v", st)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestAnySource(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		m := build(t, net, 4, 1)
		_, err := m.Run(func(r *mpi.Rank) {
			if r.ID() == 0 {
				seen := map[int]bool{}
				for i := 0; i < 3; i++ {
					st := r.Recv(mpi.AnySource, 9)
					seen[st.Src] = true
				}
				if len(seen) != 3 {
					t.Errorf("sources seen: %v", seen)
				}
			} else {
				r.Send(0, 9, 256)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestManyOutstandingRequests(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		m := build(t, net, 2, 1)
		const n = 100 // exceeds the IB eager credit ring (32)
		_, err := m.Run(func(r *mpi.Rank) {
			if r.ID() == 0 {
				reqs := make([]*mpi.Request, n)
				for i := range reqs {
					reqs[i] = r.Isend(1, 1, 512)
				}
				r.Waitall(reqs...)
			} else {
				reqs := make([]*mpi.Request, n)
				for i := range reqs {
					reqs[i] = r.Irecv(0, 1)
				}
				r.Waitall(reqs...)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestDeterministicRuns(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		run := func() units.Duration {
			m := build(t, net, 8, 2)
			res, err := m.Run(func(r *mpi.Rank) {
				r.Barrier()
				r.Allreduce(4 * units.KiB)
				next := (r.ID() + 1) % r.Size()
				prev := (r.ID() + r.Size() - 1) % r.Size()
				r.Sendrecv(next, 0, 16*units.KiB, prev, 0)
				r.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.Elapsed
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	})
}

func TestElanOverlapBeatsIB(t *testing.T) {
	// The paper's central mechanism: post Irecv/Isend, compute, Wait.
	// Elan's NIC progresses the rendezvous during compute; MVAPICH cannot,
	// so the transfer serializes after the compute phase.
	elapsed := map[platform.Network]units.Duration{}
	for _, net := range platform.Networks {
		m := build(t, net, 2, 1)
		size := units.Bytes(2 * units.MiB)
		compute := 10 * units.Millisecond
		res, err := m.Run(func(r *mpi.Rank) {
			peer := 1 - r.ID()
			var sreq, rreq *mpi.Request
			rreq = r.Irecv(peer, 0)
			sreq = r.Isend(peer, 0, size)
			r.Compute(compute, 0)
			r.Wait(sreq)
			r.Wait(rreq)
		})
		if err != nil {
			t.Fatal(err)
		}
		elapsed[net] = res.Elapsed
	}
	// Elan should hide nearly the whole transfer; IB pays it after compute.
	transfer := (880 * units.MBps).TimeFor(2 * units.MiB)
	if elapsed[platform.QuadricsElan4] > 11*units.Millisecond {
		t.Fatalf("Elan did not overlap: %v", elapsed[platform.QuadricsElan4])
	}
	if gain := elapsed[platform.InfiniBand4X] - elapsed[platform.QuadricsElan4]; gain < transfer/2 {
		t.Fatalf("IB (%v) should trail Elan (%v) by ~a transfer time (%v)",
			elapsed[platform.InfiniBand4X], elapsed[platform.QuadricsElan4], transfer)
	}
}

func TestIBRegCacheThrashVisible(t *testing.T) {
	// 2 MiB ping-pong buffers fit the pin-down cache together; two 4 MiB
	// buffers do not. Effective bandwidth must drop at 4 MiB.
	bw := func(size units.Bytes) float64 {
		m := build(t, platform.InfiniBand4X, 2, 1)
		const iters = 6
		var span units.Duration
		_, err := m.Run(func(r *mpi.Rank) {
			start := r.Now()
			for i := 0; i < iters; i++ {
				if r.ID() == 0 {
					r.Send(1, 0, size)
					r.Recv(1, 1)
				} else {
					r.Recv(0, 0)
					r.Send(0, 1, size)
				}
			}
			if r.ID() == 0 {
				span = r.Now().Sub(start)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		oneWay := span / (2 * iters)
		return units.RateOver(size, oneWay).MBpsValue()
	}
	at2 := bw(2 * units.MiB)
	at4 := bw(4 * units.MiB)
	if at4 >= at2*0.8 {
		t.Fatalf("no registration thrash: 2MiB %.0f MB/s, 4MiB %.0f MB/s", at2, at4)
	}
}

// TestWaitany: Waitany returns the index of the request that completes
// first (rank 2's message arrives long before rank 1's), releases it and
// sets its slot to nil; a later Waitany skips that slot, and one over only
// nil slots returns -1 (MPI_UNDEFINED) at once.
func TestWaitany(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		m := build(t, net, 3, 1)
		_, err := m.Run(func(r *mpi.Rank) {
			switch r.ID() {
			case 0:
				slow, fast := r.Irecv(1, 0), r.Irecv(2, 0)
				reqs := []*mpi.Request{nil, slow, fast}
				free := r.FreeRequests()
				if idx := r.Waitany(reqs...); idx != 2 || reqs[2] != nil || reqs[1] != slow {
					t.Errorf("first Waitany = %d, slots %v, want 2 with slot 2 nil", idx, reqs)
				}
				if idx := r.Waitany(reqs...); idx != 1 || reqs[1] != nil {
					t.Errorf("second Waitany = %d, slots %v, want 1 with slot 1 nil", idx, reqs)
				}
				if got := r.FreeRequests() - free; got != 2 {
					t.Errorf("Waitany released %d requests, want 2", got)
				}
				before := r.Now()
				if idx := r.Waitany(reqs...); idx != -1 {
					t.Errorf("Waitany over nil slots = %d, want -1", idx)
				}
				if r.Waitany() != -1 || r.Now() != before {
					t.Error("Waitany over no requests did not return -1 at once")
				}
			case 1:
				r.Compute(5*units.Millisecond, 0)
				r.Send(0, 0, 64)
			case 2:
				r.Send(0, 0, 64)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestWaitanyAlreadyComplete(t *testing.T) {
	m := build(t, platform.QuadricsElan4, 2, 1)
	_, err := m.Run(func(r *mpi.Rank) {
		if r.ID() == 0 {
			req := r.Isend(1, 0, 16) // eager: completes immediately
			if idx := r.Waitany(req); idx != 0 {
				t.Errorf("Waitany = %d", idx)
			}
		} else {
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitallNilsSlots: Waitall releases every request and sets its slot
// to nil, as MPI_Waitall sets it to MPI_REQUEST_NULL. It skips nil slots,
// so it follows a Waitany on the same slice, and a second Waitall on the
// slice does nothing.
func TestWaitallNilsSlots(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		m := build(t, net, 2, 1)
		_, err := m.Run(func(r *mpi.Rank) {
			peer := 1 - r.ID()
			reqs := []*mpi.Request{nil, r.Irecv(peer, 0), r.Irecv(peer, 1),
				r.Isend(peer, 0, 64*units.KiB), r.Isend(peer, 1, 64)}
			free := r.FreeRequests()
			if r.Waitany(reqs...) < 0 {
				t.Errorf("rank %d: Waitany found no request", r.ID())
			}
			r.Waitall(reqs...)
			for i, q := range reqs {
				if q != nil {
					t.Errorf("rank %d: slot %d not nil after Waitall", r.ID(), i)
				}
			}
			if got := r.FreeRequests() - free; got != len(reqs)-1 {
				t.Errorf("rank %d: Waitany and Waitall released %d requests, want %d", r.ID(), got, len(reqs)-1)
			}
			before := r.Now()
			r.Waitall(reqs...)
			if r.Now() != before || r.FreeRequests()-free != len(reqs)-1 {
				t.Errorf("rank %d: a second Waitall over nil slots did something", r.ID())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
