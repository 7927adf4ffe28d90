package match

import (
	"testing"
	"testing/quick"
)

func env(src, tag, ctx int) Envelope { return Envelope{Src: src, Tag: tag, Ctx: ctx} }

func TestArriveThenRecv(t *testing.T) {
	var e Engine
	if _, found, _ := e.Arrive(env(3, 7, 0), "m1"); found {
		t.Fatal("arrival matched with nothing posted")
	}
	msg, found, traversed := e.PostRecv(env(3, 7, 0), "r1")
	if !found || msg != "m1" {
		t.Fatalf("found=%v msg=%v", found, msg)
	}
	if traversed != 1 {
		t.Fatalf("traversed = %d", traversed)
	}
	if e.UnexpectedLen() != 0 {
		t.Fatal("unexpected queue not drained")
	}
}

func TestRecvThenArrive(t *testing.T) {
	var e Engine
	if _, found, _ := e.PostRecv(env(3, 7, 0), "r1"); found {
		t.Fatal("post matched with nothing arrived")
	}
	recv, found, _ := e.Arrive(env(3, 7, 0), "m1")
	if !found || recv != "r1" {
		t.Fatalf("found=%v recv=%v", found, recv)
	}
	if e.PostedLen() != 0 {
		t.Fatal("posted queue not drained")
	}
}

func TestWildcards(t *testing.T) {
	var e Engine
	e.PostRecv(env(AnySource, AnyTag, 0), "rAny")
	recv, found, _ := e.Arrive(env(9, 42, 0), "m")
	if !found || recv != "rAny" {
		t.Fatal("wildcard post did not match")
	}

	e.PostRecv(env(AnySource, 5, 0), "rTag5")
	if _, found, _ := e.Arrive(env(1, 6, 0), "m6"); found {
		t.Fatal("tag 6 should not match tag-5 post")
	}
	recv, found, _ = e.Arrive(env(1, 5, 0), "m5")
	if !found || recv != "rTag5" {
		t.Fatal("tag-5 arrival should match")
	}
}

func TestContextIsolation(t *testing.T) {
	var e Engine
	e.PostRecv(env(AnySource, AnyTag, 1), "ctx1")
	if _, found, _ := e.Arrive(env(0, 0, 2), "m"); found {
		t.Fatal("context 2 arrival matched context 1 post")
	}
}

func TestFIFOOrderAmongMatches(t *testing.T) {
	var e Engine
	e.PostRecv(env(AnySource, AnyTag, 0), "first")
	e.PostRecv(env(AnySource, AnyTag, 0), "second")
	recv, _, _ := e.Arrive(env(0, 0, 0), "m1")
	if recv != "first" {
		t.Fatalf("got %v, want first posted", recv)
	}
	recv, _, _ = e.Arrive(env(0, 0, 0), "m2")
	if recv != "second" {
		t.Fatalf("got %v", recv)
	}
}

func TestUnexpectedFIFO(t *testing.T) {
	var e Engine
	e.Arrive(env(1, 0, 0), "m1")
	e.Arrive(env(1, 0, 0), "m2")
	msg, _, _ := e.PostRecv(env(1, 0, 0), "r")
	if msg != "m1" {
		t.Fatalf("got %v, want m1 (earliest arrival)", msg)
	}
}

func TestTraversalCounts(t *testing.T) {
	var e Engine
	for i := 0; i < 10; i++ {
		e.PostRecv(env(i, 0, 0), i)
	}
	_, found, traversed := e.Arrive(env(7, 0, 0), "m")
	if !found || traversed != 8 {
		t.Fatalf("found=%v traversed=%d, want 8", found, traversed)
	}
}

func TestArriveWildcardPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e.Arrive(env(AnySource, 0, 0), "bad")
}

func TestCancelRecv(t *testing.T) {
	var e Engine
	e.PostRecv(env(1, 1, 0), "r1")
	if !e.CancelRecv("r1") {
		t.Fatal("cancel failed")
	}
	if e.CancelRecv("r1") {
		t.Fatal("double cancel succeeded")
	}
	if _, found, _ := e.Arrive(env(1, 1, 0), "m"); found {
		t.Fatal("cancelled post matched")
	}
}

func TestPeakDepths(t *testing.T) {
	var e Engine
	for i := 0; i < 5; i++ {
		e.Arrive(env(1, i, 0), i)
	}
	for i := 0; i < 3; i++ {
		e.PostRecv(env(2, 100+i, 0), i)
	}
	if e.MaxUnexpected != 5 || e.MaxPosted != 3 {
		t.Fatalf("peaks = %d/%d", e.MaxUnexpected, e.MaxPosted)
	}
}

func TestSequencerInOrder(t *testing.T) {
	s := NewSequencer()
	for i := uint64(0); i < 5; i++ {
		out := s.Submit(1, i, i)
		if len(out) != 1 || out[0] != i {
			t.Fatalf("seq %d: out = %v", i, out)
		}
	}
}

// TestSequencerInOrderBuildsNoMap pins the lazy pending map: a sequencer
// whose messages from several senders all arrive in order never makes it,
// and neither does the zero value.
func TestSequencerInOrderBuildsNoMap(t *testing.T) {
	for _, c := range []struct {
		name string
		s    *Sequencer
	}{{"NewSequencer", NewSequencer()}, {"zero", &Sequencer{}}} {
		name, s := c.name, c.s
		for seq := uint64(0); seq < 4; seq++ {
			for sender := 0; sender < 3; sender++ {
				if out := s.Submit(sender, seq, seq); len(out) != 1 {
					t.Fatalf("%s: sender %d seq %d: out = %v", name, sender, seq, out)
				}
			}
		}
		if s.pending != nil {
			t.Fatalf("%s: in-order submits made the pending map", name)
		}
		if s.Pending(1) != 0 || !s.Released(2, 3) {
			t.Fatalf("%s: Pending or Released disagrees without the map", name)
		}
	}
}

func TestSequencerReorders(t *testing.T) {
	s := NewSequencer()
	if out := s.Submit(1, 2, "c"); out != nil {
		t.Fatalf("early message released: %v", out)
	}
	if out := s.Submit(1, 1, "b"); out != nil {
		t.Fatalf("early message released: %v", out)
	}
	if s.Pending(1) != 2 {
		t.Fatalf("pending = %d", s.Pending(1))
	}
	out := s.Submit(1, 0, "a")
	if len(out) != 3 || out[0] != "a" || out[1] != "b" || out[2] != "c" {
		t.Fatalf("out = %v", out)
	}
	if s.Pending(1) != 0 {
		t.Fatal("pending not drained")
	}
}

func TestSequencerPerSenderIndependent(t *testing.T) {
	s := NewSequencer()
	if out := s.Submit(1, 0, "a1"); len(out) != 1 {
		t.Fatal("sender 1 blocked")
	}
	if out := s.Submit(2, 1, "b2"); out != nil {
		t.Fatal("sender 2 seq 1 released before seq 0")
	}
	if out := s.Submit(2, 0, "b1"); len(out) != 2 {
		t.Fatalf("sender 2 release = %v", out)
	}
}

func TestSequencerReleased(t *testing.T) {
	s := NewSequencer()
	if s.Released(3, 0) {
		t.Fatal("an unseen sender's seq 0 reads released")
	}
	s.Submit(3, 1, "b")
	if s.Released(3, 0) || s.Released(3, 1) {
		t.Fatal("a held-back message reads released")
	}
	s.Submit(3, 0, "a")
	if !s.Released(3, 0) || !s.Released(3, 1) || s.Released(3, 2) {
		t.Fatal("Released disagrees with the batch Submit returned")
	}
	if s.Released(2, 0) {
		t.Fatal("another sender's release leaked")
	}
}

func TestSequencerDuplicatePanics(t *testing.T) {
	s := NewSequencer()
	s.Submit(1, 5, "x")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Submit(1, 5, "y")
}

// Property: any interleaving of posts and arrivals with concrete envelopes
// conserves messages — every send is eventually received exactly once, and
// matching respects per-(src,tag) FIFO.
func TestMatchConservationProperty(t *testing.T) {
	f := func(ops []bool, srcs []uint8) bool {
		var e Engine
		nextSend, nextRecv := 0, 0
		recvOrder := []int{}
		srcOf := func(i int) int {
			if len(srcs) == 0 {
				return 0
			}
			return int(srcs[i%len(srcs)]) % 3
		}
		sent := map[int]int{}
		for _, isSend := range ops {
			if isSend {
				id := nextSend
				nextSend++
				sent[id] = srcOf(id)
				if recv, found, _ := e.Arrive(env(srcOf(id), 0, 0), id); found {
					_ = recv
					recvOrder = append(recvOrder, id)
				}
			} else {
				id := nextRecv
				nextRecv++
				if msg, found, _ := e.PostRecv(env(AnySource, 0, 0), id); found {
					recvOrder = append(recvOrder, msg.(int))
				}
			}
		}
		// Drain: post receives for everything left.
		for e.UnexpectedLen() > 0 {
			msg, found, _ := e.PostRecv(env(AnySource, AnyTag, 0), -1)
			if !found {
				return false
			}
			recvOrder = append(recvOrder, msg.(int))
		}
		// Each sent id received at most once; received ids are valid.
		seen := map[int]bool{}
		for _, id := range recvOrder {
			if seen[id] {
				return false
			}
			seen[id] = true
			if _, ok := sent[id]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Sequencer releases every submitted message exactly once and in
// per-sender order, for any permutation of arrivals.
func TestSequencerPermutationProperty(t *testing.T) {
	f := func(permSeed uint32, nRaw uint8) bool {
		n := int(nRaw)%20 + 1
		// Build a permutation of [0,n) from the seed (Fisher–Yates with a
		// tiny LCG).
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		state := uint64(permSeed) + 1
		for i := n - 1; i > 0; i-- {
			state = state*6364136223846793005 + 1442695040888963407
			j := int(state>>33) % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		s := NewSequencer()
		var released []int
		for _, seq := range perm {
			for _, m := range s.Submit(0, uint64(seq), seq) {
				released = append(released, m.(int))
			}
		}
		if len(released) != n {
			return false
		}
		for i, v := range released {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
