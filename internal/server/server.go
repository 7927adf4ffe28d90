// Package server is the simulation-as-a-service layer: a long-running
// HTTP job server that accepts experiment specs, admission-controls
// them (bounded two-lane queue, per-tenant token-bucket quotas),
// schedules them onto a persistent runner pool, streams progress and
// metrics events to clients over SSE, and serves results from a
// content-addressed artifact cache keyed on (canonicalized spec, seed,
// code version). Identical requests cost one simulation: completed
// results come from the cache, and concurrent duplicates collapse onto
// the in-flight job (singleflight).
//
// The package sits entirely on the host side of the determinism
// boundary: the simulations it schedules stay byte-identical, while the
// server itself necessarily reads the wall clock (quotas, artifact
// timestamps) and owns goroutines (dispatcher, completion watchers).
// Those sites are the sanctioned exceptions, each annotated
// //simlint:allow like the runner's; everything else in the package
// obeys simlint rules 1–4.
//
// API (all JSON; see DESIGN.md §11 for the contract):
//
//	GET    /v1/experiments     catalog of runnable experiment ids
//	POST   /v1/jobs            submit a spec; 202 queued, 200 cache hit,
//	                           429/503 (+Retry-After) on overload
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/events SSE stream: status/progress/metrics
//	GET    /v1/jobs/{id}/result the artifact (X-Cache: hit|miss)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/metrics          server + simulation counters snapshot
//	GET    /v1/healthz          liveness + queue/worker depths
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/runner"
)

// Config parameterizes a Server. CacheDir is required; every other
// field has a serviceable default.
type Config struct {
	// CacheDir roots the content-addressed artifact cache.
	CacheDir string
	// CacheMaxBytes bounds the artifact cache's on-disk size; once
	// exceeded, least-recently-used entries are evicted after each store
	// (entries with an in-flight read are never evicted mid-read).
	// <= 0 means unbounded.
	CacheMaxBytes int64
	// Workers caps concurrently running experiments; <= 0 means
	// GOMAXPROCS(0).
	Workers int
	// SweepJobs is the per-experiment sweep concurrency
	// (experiments.Options.Jobs); <= 0 means GOMAXPROCS(0).
	SweepJobs int
	// QueueDepth bounds the admission queue across both lanes; <= 0
	// means 64. A full queue rejects with 503 + Retry-After.
	QueueDepth int
	// QuotaRate is each tenant's sustained admission rate in jobs per
	// second; <= 0 disables quotas. QuotaBurst is the bucket size
	// (minimum 1). A dry bucket rejects with 429 + Retry-After.
	QuotaRate  float64
	QuotaBurst float64
	// SimTimeout bounds each individual simulation inside a sweep
	// (experiments.Options.Timeout); 0 means unbounded.
	SimTimeout time.Duration
	// Retries re-runs sweep points that panic or time out (see
	// experiments.Options.Retries).
	Retries int
	// CodeVersion folds into every cache key so results never leak
	// across builds. Empty means the VCS revision baked into the binary,
	// or "dev" when absent.
	CodeVersion string
	// Metrics receives the server's own counters and gauges; nil creates
	// a private registry (exposed at /v1/metrics either way).
	Metrics *metrics.Registry
	// Now supplies the wall clock, for tests. Nil means time.Now.
	Now func() time.Time
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...interface{})
}

// Server is one simulation-as-a-service instance. Create with New,
// mount Handler on an http.Server, and stop with Drain.
type Server struct {
	cache       *Cache
	queue       *queue
	quotas      *quotas
	svc         *runner.Service
	sweepJobs   int
	simTimeout  time.Duration
	retries     int
	codeVersion string
	now         func() time.Time
	logf        func(string, ...interface{})

	reg           *metrics.Registry
	accepted      *metrics.Counter
	rejectedQuota *metrics.Counter
	rejectedQueue *metrics.Counter
	deduped       *metrics.Counter
	cacheHits     *metrics.Counter
	cacheMisses   *metrics.Counter
	jobsDone      *metrics.Counter
	jobsFailed    *metrics.Counter
	jobsCanceled  *metrics.Counter
	queueDepth    *metrics.Gauge
	runningGauge  *metrics.Gauge

	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool
	dispDone   chan struct{}
	watchers   sync.WaitGroup
	running    atomic.Int64
	seq        atomic.Uint64

	mu      sync.Mutex
	jobs    map[string]*job // every job ever accepted, by id
	flights map[string]*job // singleflight: content address -> live or done job
}

// New builds a server and starts its dispatcher. Call Drain to stop.
func New(cfg Config) (*Server, error) {
	now := cfg.Now
	if now == nil {
		now = time.Now // the server's sanctioned clock source (quotas, artifact timestamps)
	}
	cache, err := NewCacheWithBudget(cfg.CacheDir, cfg.CacheMaxBytes, now)
	if err != nil {
		return nil, err
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	sweepJobs := cfg.SweepJobs
	if sweepJobs <= 0 {
		sweepJobs = runtime.GOMAXPROCS(0)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	version := cfg.CodeVersion
	if version == "" {
		version = buildVersion()
	}
	s := &Server{
		cache:       cache,
		queue:       newQueue(depth),
		quotas:      newQuotas(cfg.QuotaRate, cfg.QuotaBurst),
		svc:         runner.NewService(runner.Pool{Workers: cfg.Workers}),
		sweepJobs:   sweepJobs,
		simTimeout:  cfg.SimTimeout,
		retries:     cfg.Retries,
		codeVersion: version,
		now:         now,
		logf:        logf,

		reg:           reg,
		accepted:      reg.Counter("server.jobs_accepted"),
		rejectedQuota: reg.Counter("server.jobs_rejected_quota"),
		rejectedQueue: reg.Counter("server.jobs_rejected_queue"),
		deduped:       reg.Counter("server.jobs_deduped"),
		cacheHits:     reg.Counter("server.cache_hits"),
		cacheMisses:   reg.Counter("server.cache_misses"),
		jobsDone:      reg.Counter("server.jobs_done"),
		jobsFailed:    reg.Counter("server.jobs_failed"),
		jobsCanceled:  reg.Counter("server.jobs_canceled"),
		queueDepth:    reg.Gauge("server.queue_depth"),
		runningGauge:  reg.Gauge("server.jobs_running"),

		dispDone: make(chan struct{}),
		jobs:     map[string]*job{},
		flights:  map[string]*job{},
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	//simlint:allow goroutine — dispatcher: serializes queue -> runner-pool handoff for the server's lifetime
	go s.dispatch()
	return s, nil
}

// buildVersion derives the default cache-key code version from the
// binary's embedded VCS revision.
func buildVersion() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" && kv.Value != "" {
				return kv.Value
			}
		}
	}
	return "dev"
}

// CodeVersion reports the version folded into cache keys.
func (s *Server) CodeVersion() string { return s.codeVersion }

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", s.handleCatalog)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// SubmitRequest is the POST /v1/jobs body: the result-determining spec
// plus scheduling hints that never enter the cache key.
type SubmitRequest struct {
	experiments.Spec
	// Priority selects the admission lane: "interactive" or "batch"
	// (default).
	Priority string `json:"priority,omitempty"`
	// Wait blocks the POST until the job reaches a terminal state and
	// returns the full result inline — curl-friendly synchronous mode.
	Wait bool `json:"wait,omitempty"`
}

// JobView is the JSON shape of a job in responses.
type JobView struct {
	ID         string           `json:"id"`
	Experiment string           `json:"experiment"`
	Quick      bool             `json:"quick"`
	Seed       uint64           `json:"seed"`
	Faults     string           `json:"faults,omitempty"`
	Key        string           `json:"key"`
	State      State            `json:"state"`
	Priority   string           `json:"priority"`
	Tenant     string           `json:"tenant"`
	Cache      string           `json:"cache"`
	Error      string           `json:"error,omitempty"`
	Checksum   string           `json:"checksum,omitempty"`
	Artifact   *runner.Artifact `json:"artifact,omitempty"`
}

// view renders a job. cache names how the submission was satisfied
// ("hit": served or joined without scheduling new work; "miss": this
// submission caused the simulation). withArtifact inlines the artifact
// when the job is done.
func (s *Server) view(j *job, cache string, withArtifact bool) JobView {
	state, errMsg, a, _ := j.snapshot()
	v := JobView{
		ID:         j.id,
		Experiment: j.spec.Experiment,
		Quick:      j.spec.Quick,
		Seed:       j.spec.Seed,
		Faults:     j.spec.Faults,
		Key:        j.key,
		State:      state,
		Priority:   j.lane.String(),
		Tenant:     j.tenant,
		Cache:      cache,
		Error:      errMsg,
	}
	if a != nil {
		v.Checksum = a.Checksum
		if withArtifact {
			v.Artifact = a
		}
	}
	return v
}

const anonTenant = "anon"

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "10")
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	spec, err := req.Spec.Normalized()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	lane, err := ParseLane(req.Priority)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = anonTenant
	}

	j, cache, status, admErr := s.admit(spec, tenant, lane)
	if admErr != nil {
		httpError(w, status, "%v", admErr)
		return
	}
	if req.Wait {
		select {
		case <-j.done:
			status = http.StatusOK
		case <-r.Context().Done():
			return // client went away; the job keeps running for the next requester
		}
	}
	writeJSON(w, status, s.view(j, cache, true))
}

// admit is the singleflight + admission-control core. It returns the
// job serving this submission, the cache disposition ("hit" or "miss"),
// and the HTTP status to respond with; rejections come back as a
// *retryError carrying the Retry-After hint.
func (s *Server) admit(spec experiments.Spec, tenant string, lane Lane) (*job, string, int, error) {
	key := spec.Key(s.codeVersion)
	s.mu.Lock()
	// 1. An identical request is already live (or kept warm in memory):
	//    join it. Whether it is still running (singleflight collapse) or
	//    already done (cache hit), no new work is scheduled.
	if j := s.flights[key]; j != nil {
		state, _, _, _ := j.snapshot()
		s.mu.Unlock()
		status := http.StatusAccepted
		if state.terminal() {
			status = http.StatusOK
			s.cacheHits.Inc()
		} else {
			s.deduped.Inc()
		}
		return j, "hit", status, nil
	}
	// 2. The content-addressed store has the artifact from an earlier
	//    flight (possibly a previous process): surface it as a done job.
	if a, ok := s.cache.Get(key); ok {
		j := newHitJob(s.nextID(), spec, key, tenant, a)
		s.jobs[j.id] = j
		s.flights[key] = j
		s.mu.Unlock()
		s.cacheHits.Inc()
		return j, "hit", http.StatusOK, nil
	}
	// 3. New work: spend a quota token and claim a queue slot.
	if ok, wait := s.quotas.take(tenant, s.now()); !ok {
		s.mu.Unlock()
		s.rejectedQuota.Inc()
		return nil, "", http.StatusTooManyRequests,
			&retryError{wait: wait, msg: fmt.Sprintf("tenant %q over quota", tenant)}
	}
	j := newJob(s.nextID(), spec, key, tenant, lane)
	if err := s.queue.push(j); err != nil {
		s.mu.Unlock()
		s.rejectedQueue.Inc()
		return nil, "", http.StatusServiceUnavailable, &retryError{wait: time.Second, msg: err.Error()}
	}
	s.jobs[j.id] = j
	s.flights[key] = j
	s.mu.Unlock()
	s.accepted.Inc()
	s.cacheMisses.Inc()
	s.queueDepth.Set(float64(s.queue.depth()))
	return j, "miss", http.StatusAccepted, nil
}

// retryError carries the Retry-After hint for 429/503 responses.
type retryError struct {
	wait time.Duration
	msg  string
}

func (e *retryError) Error() string { return e.msg }

// retryAfterSeconds renders the hint as the ceiling in whole seconds
// (Retry-After's unit), never less than 1.
func (e *retryError) retryAfterSeconds() int {
	secs := int((e.wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) nextID() string {
	return fmt.Sprintf("job-%06d", s.seq.Add(1))
}

func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// clearFlight removes j's singleflight claim if it still holds it, so a
// failed or cancelled run can be retried by the next submission.
func (s *Server) clearFlight(j *job) {
	s.mu.Lock()
	if s.flights[j.key] == j {
		delete(s.flights, j.key)
	}
	s.mu.Unlock()
}

// dispatch is the scheduling loop: it pulls the highest-priority queued
// job and performs a rendezvous handoff to the runner service, so queue
// order (interactive before batch, FIFO within a lane) is exactly the
// execution order.
func (s *Server) dispatch() {
	defer close(s.dispDone)
	for {
		j, ok := s.queue.pop(s.baseCtx)
		if !ok {
			return
		}
		s.queueDepth.Set(float64(s.queue.depth()))
		jctx, jcancel := context.WithCancel(s.baseCtx)
		if !j.bind(jcancel) {
			// Cancelled while queued.
			jcancel()
			s.clearFlight(j)
			continue
		}
		s.running.Add(1)
		s.runningGauge.Set(float64(s.running.Load()))
		h, err := s.svc.Submit(jctx, runner.Job{
			ID:     j.id,
			Labels: map[string]string{"experiment": j.spec.Experiment, "tenant": j.tenant},
			Run:    s.execute(j),
		})
		if err != nil {
			jcancel()
			s.running.Add(-1)
			s.runningGauge.Set(float64(s.running.Load()))
			// A cancelled rendezvous (DELETE while waiting for a worker
			// slot, or a drain) is a cancellation, not a failure.
			if errors.Is(err, context.Canceled) {
				j.finish(StateCanceled, "canceled before execution", nil)
				s.jobsCanceled.Inc()
			} else {
				j.finish(StateFailed, fmt.Sprintf("scheduling failed: %v", err), nil)
				s.jobsFailed.Inc()
			}
			s.clearFlight(j)
			continue
		}
		s.watchers.Add(1)
		//simlint:allow goroutine — per-job completion watcher: caches the artifact and publishes the terminal event
		go s.watch(j, h, jcancel)
	}
}

// execute builds the runner job body for one accepted submission: run
// the experiment with progress forwarded to the job's event stream,
// then package the result as a checksummed artifact.
func (s *Server) execute(j *job) func(ctx context.Context) (interface{}, error) {
	return func(ctx context.Context) (interface{}, error) {
		if !j.setRunning() {
			return nil, context.Canceled // cancelled while waiting for this worker
		}
		reg := metrics.New()
		opts := experiments.Options{
			Jobs:       s.sweepJobs,
			Timeout:    s.simTimeout,
			Retries:    s.retries,
			Ctx:        ctx,
			Metrics:    reg,
			OnProgress: j.progress,
		}
		res, err := j.spec.Run(opts)
		if err != nil {
			return nil, err
		}
		// A sweep drained by cancellation still returns a (partial)
		// result; it must not masquerade as the experiment's artifact.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if snap, err := json.Marshal(reg.Snapshot()); err == nil {
			j.metricsEvent(snap)
		}
		a := &runner.Artifact{
			Experiment: j.spec.Experiment,
			Title:      res.Title,
			Meta: runner.Meta{
				Quick:     j.spec.Quick,
				Jobs:      s.sweepJobs,
				Seed:      j.spec.Seed,
				GoVersion: runtime.Version(),
				//simlint:allow timetaint — CreatedAt is provenance metadata, never an input to simulated results
				CreatedAt: s.now().UTC().Format(time.RFC3339),
				SimEvents: reg.Counter("sim.events_dispatched").Value(),
			},
			Notes:    res.Notes,
			Failures: res.Failures,
		}
		for _, t := range res.Tables {
			a.Tables = append(a.Tables, runner.Table{Title: t.Title, Headers: t.Headers, Rows: t.Rows})
		}
		return a, nil
	}
}

// watch settles one dispatched job: on success the artifact enters the
// content-addressed store and the flight stays claimed (future
// identical submissions hit in memory); failures and cancellations
// release the flight so the next submission may retry. Each outcome is
// counted before finish releases the job's waiters, so a client that has
// seen the job end also sees it counted.
func (s *Server) watch(j *job, h *runner.Handle, jcancel context.CancelFunc) {
	defer s.watchers.Done()
	r := h.Result()
	jcancel()
	s.running.Add(-1)
	s.runningGauge.Set(float64(s.running.Load()))
	switch {
	case r.Err != nil && errors.Is(r.Err, context.Canceled):
		s.jobsCanceled.Inc()
		j.finish(StateCanceled, r.Err.Error(), nil)
		s.clearFlight(j)
	case r.Err != nil:
		s.jobsFailed.Inc()
		j.finish(StateFailed, r.Err.Error(), nil)
		s.clearFlight(j)
	default:
		a := r.Value.(*runner.Artifact)
		//simlint:allow timetaint — WallMS is diagnostic throughput metadata
		a.Meta.WallMS = float64(r.Wall) / float64(time.Millisecond)
		if a.Meta.SimEvents > 0 && r.Wall > 0 {
			//simlint:allow timetaint — EventsPerSec is diagnostic throughput metadata
			a.Meta.EventsPerSec = float64(a.Meta.SimEvents) / r.Wall.Seconds()
		}
		if err := s.cache.Put(j.key, a); err != nil {
			s.logf("server: cache put %s: %v", j.key, err)
		}
		s.jobsDone.Inc()
		j.finish(StateDone, "", a)
	}
}

// Drain gracefully stops the server: admission closes (new submissions
// get 503), queued jobs are cancelled, and running jobs finish. If ctx
// expires first, running jobs are cancelled cooperatively and Drain
// still waits for the workers to come home before returning ctx's
// error. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	orphans := s.queue.close()
	for _, j := range orphans {
		j.finish(StateCanceled, "server draining", nil)
		s.clearFlight(j)
		s.jobsCanceled.Inc()
	}
	drained := make(chan struct{})
	//simlint:allow goroutine — drain waiter: lets ctx bound the graceful phase
	go func() {
		<-s.dispDone
		s.svc.Drain()
		s.watchers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.baseCancel() // cooperative hard-cancel of in-flight experiments
		<-drained
		return ctx.Err()
	}
}

func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"experiments": experiments.Catalog()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	_, _, _, fromHit := j.snapshot()
	writeJSON(w, http.StatusOK, s.view(j, cacheStateName(fromHit), false))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	state, errMsg, a, fromHit := j.snapshot()
	switch state {
	case StateDone:
		w.Header().Set("X-Cache", cacheStateName(fromHit))
		writeJSON(w, http.StatusOK, a)
	case StateFailed:
		httpError(w, http.StatusConflict, "job failed: %s", errMsg)
	case StateCanceled:
		httpError(w, http.StatusConflict, "job canceled")
	default:
		httpError(w, http.StatusConflict, "job not finished (state %s); follow /v1/jobs/%s/events", state, j.id)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if j.requestCancel() {
		// Release the flight now, not when the dispatcher next looks, so
		// an identical submission right after the DELETE schedules fresh
		// work instead of joining the cancelled job.
		s.clearFlight(j)
	}
	writeJSON(w, http.StatusOK, s.view(j, "miss", false))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":      status,
		"queue_depth": s.queue.depth(),
		"running":     s.running.Load(),
	})
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing to do but note it for the operator.
		_ = err
	}
}

// httpError writes a JSON error body, honoring retryError's hint.
func httpError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	for _, a := range args {
		if re, ok := a.(*retryError); ok {
			w.Header().Set("Retry-After", strconv.Itoa(re.retryAfterSeconds()))
		}
	}
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
