package mpi_test

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/units"
)

func TestCommWorldBasics(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		m := build(t, net, 4, 1)
		_, err := m.Run(func(r *mpi.Rank) {
			c := r.CommWorld()
			if c.Rank() != r.ID() || c.Size() != r.Size() {
				t.Errorf("world comm view wrong: %d/%d", c.Rank(), c.Size())
			}
			if c.WorldRank(3) != 3 {
				t.Error("world rank translation broken")
			}
			// Point-to-point over the world communicator.
			if r.ID() == 0 {
				c.Send(1, 5, 256)
			} else if r.ID() == 1 {
				st := c.Recv(0, 5)
				if st.Src != 0 {
					t.Errorf("comm status src = %d", st.Src)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestCommWorldSharesOneTable: every rank's view of the world
// communicator shares one member table, so a machine holds one, not one
// per rank; a split communicator holds its own.
func TestCommWorldSharesOneTable(t *testing.T) {
	m := build(t, platform.InfiniBand4X, 4, 1)
	tables := map[*int]bool{}
	_, err := m.Run(func(r *mpi.Rank) {
		tables[&r.CommWorld().Members()[0]] = true
		if sub := r.CommWorld().Split(0, r.ID()); &sub.Members()[0] == &r.CommWorld().Members()[0] {
			t.Error("a split communicator shares the world's member table")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Errorf("%d world member tables, want 1", len(tables))
	}
}

func TestSplitRowsAndColumns(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		const rows, cols = 2, 4 // 8 ranks
		m := build(t, net, rows*cols, 1)
		_, err := m.Run(func(r *mpi.Rank) {
			world := r.CommWorld()
			row := world.Split(r.ID()/cols, r.ID()%cols)
			col := world.Split(r.ID()%cols+100, r.ID()/cols)
			if row.Size() != cols {
				t.Errorf("row comm size %d, want %d", row.Size(), cols)
			}
			if col.Size() != rows {
				t.Errorf("col comm size %d, want %d", col.Size(), rows)
			}
			if row.Rank() != r.ID()%cols {
				t.Errorf("row rank %d, want %d", row.Rank(), r.ID()%cols)
			}
			if col.Rank() != r.ID()/cols {
				t.Errorf("col rank %d, want %d", col.Rank(), r.ID()/cols)
			}
			// Row-local ring exchange: must never leak across rows.
			next := (row.Rank() + 1) % row.Size()
			prev := (row.Rank() - 1 + row.Size()) % row.Size()
			st := row.Sendrecv(next, 0, 1024, prev, 0)
			if st.Src != prev {
				t.Errorf("row exchange src %d, want %d", st.Src, prev)
			}
			// Collectives on sub-communicators.
			row.Allreduce(512)
			col.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestSplitUndefinedColor(t *testing.T) {
	m := build(t, platform.QuadricsElan4, 4, 1)
	_, err := m.Run(func(r *mpi.Rank) {
		color := 0
		if r.ID() == 3 {
			color = -1 // opts out, but still participates in the split
		}
		sub := r.CommWorld().Split(color, r.ID())
		if r.ID() == 3 {
			if sub != nil {
				t.Error("undefined color should yield nil comm")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("comm size %d, want 3", sub.Size())
		}
		sub.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyOrdersMembers(t *testing.T) {
	m := build(t, platform.InfiniBand4X, 4, 1)
	_, err := m.Run(func(r *mpi.Rank) {
		// Reverse the ordering via keys.
		sub := r.CommWorld().Split(0, -r.ID())
		wantRank := 3 - r.ID()
		if sub.Rank() != wantRank {
			t.Errorf("rank %d: sub rank %d, want %d", r.ID(), sub.Rank(), wantRank)
		}
		if sub.WorldRank(0) != 3 {
			t.Errorf("member 0 should be world rank 3, got %d", sub.WorldRank(0))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommContextIsolation(t *testing.T) {
	// Same tags on different communicators must not match each other.
	m := build(t, platform.QuadricsElan4, 4, 1)
	_, err := m.Run(func(r *mpi.Rank) {
		world := r.CommWorld()
		sub := world.Split(0, r.ID()) // same membership, different context
		if r.ID() == 0 {
			world.IsendPayload(1, 7, 64, "world")
			sub.IsendPayload(1, 7, 64, "sub")
			// Ensure both sends drain before we finish.
			world.Barrier()
		} else if r.ID() == 1 {
			// Receive in OPPOSITE order of sending: context must select.
			if st := r.Wait(sub.Irecv(0, 7)); st.Payload != "sub" {
				t.Errorf("sub comm got %v", st.Payload)
			}
			if st := r.Wait(world.Irecv(0, 7)); st.Payload != "world" {
				t.Errorf("world comm got %v", st.Payload)
			}
			world.Barrier()
		} else {
			world.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedSplitsGetDistinctContexts(t *testing.T) {
	m := build(t, platform.QuadricsElan4, 2, 1)
	_, err := m.Run(func(r *mpi.Rank) {
		w := r.CommWorld()
		a := w.Split(0, r.ID())
		b := w.Split(0, r.ID())
		// Message sent on a must not be received on b.
		if r.ID() == 0 {
			a.IsendPayload(1, 1, 32, "on-a")
			b.IsendPayload(1, 1, 32, "on-b")
			w.Barrier()
		} else {
			if st := r.Wait(b.Irecv(0, 1)); st.Payload != "on-b" {
				t.Errorf("comm b got %v", st.Payload)
			}
			if st := r.Wait(a.Irecv(0, 1)); st.Payload != "on-a" {
				t.Errorf("comm a got %v", st.Payload)
			}
			w.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewCollectives(t *testing.T) {
	onBoth(t, func(t *testing.T, net platform.Network) {
		for _, ranks := range []int{2, 4, 6, 8} {
			m := build(t, net, ranks, 1)
			_, err := m.Run(func(r *mpi.Rank) {
				r.ReduceScatter(1024)
				r.Scan(512)
				r.Barrier()
			})
			if err != nil {
				t.Fatalf("ranks=%d: %v", ranks, err)
			}
		}
	})
}

func TestScanIsOrdered(t *testing.T) {
	// Scan's pipeline: member i cannot finish before members < i entered.
	m := build(t, platform.QuadricsElan4, 4, 1)
	entries := make([]units.Time, 4)
	exits := make([]units.Time, 4)
	_, err := m.Run(func(r *mpi.Rank) {
		r.Compute(units.Duration(3-r.ID())*20*units.Microsecond, 0) // reverse stagger
		entries[r.ID()] = r.Now()
		r.Scan(1024)
		exits[r.ID()] = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if exits[i] < entries[i-1] {
			t.Fatalf("rank %d finished scan at %v before rank %d entered at %v",
				i, exits[i], i-1, entries[i-1])
		}
	}
}
