package mpi

import (
	"fmt"

	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/units"
)

// World is one MPI job: ranks, their nodes, and a transport.
type World struct {
	eng       *sim.Engine
	cfg       Config
	cluster   *host.Cluster
	transport Transport
	ranks     []*Rank

	// Communicator-split machinery (see comm.go).
	splits   map[splitKey]*splitState
	ctxAlloc map[ctxKey]int
	nextCtx  int

	// Optional event trace (see trace.go).
	trace *tracer

	// Optional timeline track (per-rank send/recv/compute spans); nil
	// unless the engine carries a tracing-enabled metrics registry.
	track *metrics.Track
}

// NewWorld builds a job. The caller provides the transport already bound to
// its network model (fabric + NICs); NewWorld wires ranks to nodes
// block-wise and calls transport.Attach.
func NewWorld(eng *sim.Engine, cfg Config, transport Transport) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cluster, err := host.NewCluster(eng, cfg.NodesFor(), cfg.Node)
	if err != nil {
		return nil, err
	}
	w := &World{eng: eng, cfg: cfg, cluster: cluster, transport: transport}
	w.track = eng.TraceTrack()
	w.ranks = make([]*Rank, cfg.Ranks)
	for i := range w.ranks {
		w.ranks[i] = &Rank{
			world:    w,
			id:       i,
			eng:      eng,
			node:     cluster.Nodes[i/cfg.PPN],
			slot:     i % cfg.PPN,
			incoming: eng.NewSignal(fmt.Sprintf("rank%d incoming", i)),
		}
		w.ranks[i].shm.init()
		if w.track != nil {
			w.track.SetThreadName(sim.TidRank+int64(i), fmt.Sprintf("rank%d", i))
		}
	}
	transport.Attach(w)
	return w, nil
}

// Engine returns the simulation engine.
func (w *World) Engine() *sim.Engine { return w.eng }

// Config returns the job configuration.
func (w *World) Config() Config { return w.cfg }

// Size reports the number of ranks.
func (w *World) Size() int { return w.cfg.Ranks }

// Rank returns rank i. Valid only after NewWorld; the rank's process exists
// only during Run.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// NodeOf reports the node index hosting the rank.
func (w *World) NodeOf(rank int) int { return rank / w.cfg.PPN }

// Transport returns the network protocol engine.
func (w *World) Transport() Transport { return w.transport }

// Result summarizes a completed run.
type Result struct {
	// Elapsed is the wall-clock span from job start to the completion of
	// the last rank.
	Elapsed units.Duration
	// RankElapsed is each rank's individual completion time.
	RankElapsed []units.Duration
	// Events is the number of simulation events dispatched.
	Events uint64
}

// Run executes app once per rank (as simulated processes) and returns when
// every rank's function has completed. It may be called multiple times on
// the same world (e.g. warmup then measurement); simulated time accumulates.
func (w *World) Run(app func(r *Rank)) (*Result, error) {
	start := w.eng.Now()
	res := &Result{RankElapsed: make([]units.Duration, w.cfg.Ranks)}
	for _, r := range w.ranks {
		r.launch(start, app, res)
	}
	if err := w.eng.Run(); err != nil {
		w.eng.Shutdown()
		return nil, err
	}
	// Each rank wrote its own slot; the job span is their maximum.
	for _, d := range res.RankElapsed {
		if d > res.Elapsed {
			res.Elapsed = d
		}
	}
	res.Events = w.eng.Events()
	return res, nil
}
