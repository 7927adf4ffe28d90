package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/elan"
	"repro/internal/fabric"
	"repro/internal/host"
	"repro/internal/ib"
	"repro/internal/match"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// microReps is how many times each layer microbenchmark runs; it reports
// the median.
const microReps = 5

// microBench is one layer microbenchmark: a fixed number of operations on
// one layer, set up outside the timed interval.
type microBench struct {
	name string
	ops  int
	// per converts ns per operation into the reported unit.
	per float64
	// run performs the operations and returns the time they took.
	run func(ops int) (time.Duration, error)
}

// layerBenchmarks runs every layer microbenchmark and returns the metrics,
// plus sim.switch_allocs measured alongside sim.switch_ns.
func layerBenchmarks() (map[string]float64, error) {
	out := map[string]float64{}
	var allocs []float64
	switches := func(ops int) (time.Duration, error) {
		d, n, err := procSwitches(ops)
		allocs = append(allocs, float64(n)/float64(ops))
		return d, err
	}
	benches := []microBench{
		{"sim.switch_ns", 50_000, 1, switches},
		{"sim.at_run_ns", 200_000, 1, eventQueue},
		{"fabric.send_ns.1chunk", 50_000, 1, fabricSend(1, false)},
		{"fabric.send_ns.64chunk", 20_000, 1, fabricSend(64, false)},
		{"fabric.send_ns.64chunk_contended", 400, 1, fabricSend(64, true)},
		{"match.arrive_ns.depth1", 1_000_000, 1, matchArrive(1)},
		{"match.arrive_ns.depth64", 200_000, 1, matchArrive(64)},
		{"ib.rdma_write_ns.8k", 20_000, 1, rdmaWrite(8 * units.KiB)},
		{"ib.rdma_write_ns.1m", 2_000, 1, rdmaWrite(units.MiB)},
		{"elan.txpost_ns.8k", 20_000, 1, elanTxPost},
		{"host.compute_ns", 20_000, 1, hostCompute},
		{"mpi.pingpong_us.eager.ib", 2_000, 1e-3, pingPong(platform.InfiniBand4X, 512)},
		{"mpi.pingpong_us.eager.elan", 2_000, 1e-3, pingPong(platform.QuadricsElan4, 512)},
		{"mpi.pingpong_us.rndv.ib", 500, 1e-3, pingPong(platform.InfiniBand4X, 256*units.KiB)},
		{"mpi.pingpong_us.rndv.elan", 500, 1e-3, pingPong(platform.QuadricsElan4, 256*units.KiB)},
		{"platform.new_us.16", 2, 1e-3, platformNew(16)},
		{"platform.new_us.512", 2, 1e-3, platformNew(512)},
	}
	for _, mb := range benches {
		reps := make([]float64, microReps)
		for i := range reps {
			d, err := mb.run(mb.ops)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", mb.name, err)
			}
			reps[i] = float64(d.Nanoseconds()) / float64(mb.ops) * mb.per
		}
		out[mb.name] = summarize(reps).Median
	}
	out["sim.switch_allocs"] = summarize(allocs).Median
	return out, nil
}

// procSwitches times a process that sleeps one picosecond ops times: each
// operation is one scheduled event and a switch into the process and back.
// It also reports the heap allocations the switches made.
func procSwitches(ops int) (time.Duration, uint64, error) {
	eng := sim.NewEngine()
	eng.Spawn("switcher", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			p.Sleep(1)
		}
	})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	err := eng.Run()
	d := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return d, ms1.Mallocs - ms0.Mallocs, err
}

// eventQueue times At plus dispatch with 1024 events pending: each event
// reschedules itself a seeded random delay ahead until ops have run.
func eventQueue(ops int) (time.Duration, error) {
	const depth = 1024
	eng := sim.NewEngine()
	src := rng.New(defaultSeed)
	n := 0
	var fn func()
	fn = func() {
		n++
		if n <= ops-depth {
			eng.After(sim.Duration(1+src.Intn(1000)), fn)
		}
	}
	for i := 0; i < depth; i++ {
		eng.After(sim.Duration(1+src.Intn(1000)), fn)
	}
	t0 := time.Now()
	err := eng.Run()
	return time.Since(t0), err
}

// fabricSend times messages of the given chunk count on a 16-node IB
// fabric, driven by delivery callbacks. Uncontended, one message is in
// flight at a time between rotating node pairs, so coalescing can engage;
// contended, eight nodes send to node 0 at once.
func fabricSend(chunks int, contended bool) func(int) (time.Duration, error) {
	return func(ops int) (time.Duration, error) {
		eng := sim.NewEngine()
		params := platform.IBFabricParams()
		fab, err := fabric.New(eng, 16, platform.IBRadix, params)
		if err != nil {
			return 0, err
		}
		size := units.Bytes(chunks) * params.MTU
		sent := 0
		var next func()
		next = func() {
			if sent >= ops {
				return
			}
			if !contended {
				sent++
				fab.Send(sent%16, (sent+1)%16, size).OnFire(next)
				return
			}
			round := make([]*sim.Signal, 8)
			for i := range round {
				round[i] = fab.Send(i+1, 0, size)
			}
			sent += len(round)
			left := len(round)
			for _, s := range round {
				s.OnFire(func() {
					if left--; left == 0 {
						next()
					}
				})
			}
		}
		eng.At(0, next)
		t0 := time.Now()
		err = eng.Run()
		return time.Since(t0), err
	}
}

// matchArrive times a posted receive plus a matching arrival behind
// depth-1 receives that never match.
func matchArrive(depth int) func(int) (time.Duration, error) {
	return func(ops int) (time.Duration, error) {
		var e match.Engine
		for i := 0; i < depth-1; i++ {
			e.PostRecv(match.Envelope{Src: 1, Tag: 1000 + i}, nil)
		}
		env := match.Envelope{Src: 0, Tag: 0}
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			e.PostRecv(env, nil)
			if _, found, _ := e.Arrive(env, nil); !found {
				return 0, fmt.Errorf("arrival %d found no posted receive", i)
			}
		}
		return time.Since(t0), nil
	}
}

// rdmaWrite times blocking RDMA writes of size bytes between two HCAs.
func rdmaWrite(size units.Bytes) func(int) (time.Duration, error) {
	return func(ops int) (time.Duration, error) {
		eng := sim.NewEngine()
		fab, err := fabric.New(eng, 2, platform.IBRadix, platform.IBFabricParams())
		if err != nil {
			return 0, err
		}
		hca := ib.NewNetwork(eng, fab, ib.DefaultParams()).HCA(0)
		hca.ConnectNoCost(1)
		eng.Spawn("writer", func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				p.Wait(hca.RDMAWrite(p, 1, size, nil))
			}
		})
		t0 := time.Now()
		err = eng.Run()
		return time.Since(t0), err
	}
}

// elanTxPost times eager 8 KiB Tports sends between two Elan NICs, each
// into a receive posted beforehand on the other NIC, one at a time.
func elanTxPost(ops int) (time.Duration, error) {
	eng := sim.NewEngine()
	fab, err := fabric.New(eng, 2, platform.ElanRadix, platform.ElanFabricParams())
	if err != nil {
		return 0, err
	}
	net := elan.NewNetwork(eng, fab, elan.DefaultParams(), func(rank int) int { return rank })
	net.NIC(0).AttachRank(0)
	net.NIC(1).AttachRank(1)
	env := match.Envelope{Src: 0, Tag: 0}
	eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			rx := net.NIC(1).RxPost(p, 1, env)
			p.Wait(net.NIC(0).TxPost(p, 0, 1, env, 8*units.KiB, nil))
			p.Wait(rx.Done)
		}
	})
	t0 := time.Now()
	err = eng.Run()
	return time.Since(t0), err
}

// hostCompute times Compute calls by two processes sharing a node, so
// every call changes the node's membership and re-rates the other.
func hostCompute(ops int) (time.Duration, error) {
	eng := sim.NewEngine()
	node, err := host.NewNode(eng, 0, mpi.DefaultConfig(2, 2).Node)
	if err != nil {
		return 0, err
	}
	for slot := 0; slot < 2; slot++ {
		work := units.Duration(10+slot) * units.Microsecond
		eng.Spawn(fmt.Sprintf("slot%d", slot), func(p *sim.Proc) {
			for i := 0; i < ops/2; i++ {
				node.Compute(p, slot, work, 0.5)
			}
		})
	}
	t0 := time.Now()
	err = eng.Run()
	return time.Since(t0), err
}

// pingPong times MPI ping-pong round trips between two ranks inside
// Machine.Run.
func pingPong(net platform.Network, size units.Bytes) func(int) (time.Duration, error) {
	return func(ops int) (time.Duration, error) {
		m, err := platform.New(platform.Options{Network: net, Ranks: 2, PPN: 1})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = m.Run(func(r *mpi.Rank) {
			for i := 0; i < ops; i++ {
				if r.ID() == 0 {
					r.Send(1, 0, size)
					r.Recv(1, 0)
				} else {
					r.Recv(0, 0)
					r.Send(0, 0, size)
				}
			}
		})
		return time.Since(t0), err
	}
}

// platformNew times machine assembly at the given rank count; each
// operation builds one machine, alternating the networks.
func platformNew(ranks int) func(int) (time.Duration, error) {
	return func(ops int) (time.Duration, error) {
		var total time.Duration
		for i := 0; i < ops; i++ {
			t0 := time.Now()
			_, err := platform.New(platform.Options{Network: platform.Networks[i%2], Ranks: ranks, PPN: 1})
			total += time.Since(t0)
			if err != nil {
				return 0, err
			}
		}
		return total, nil
	}
}
