package server

import (
	"encoding/json"
	"sync"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: admitted, waiting for a runner worker.
	StateQueued State = "queued"
	// StateRunning: on a worker.
	StateRunning State = "running"
	// StateDone: finished; artifact available.
	StateDone State = "done"
	// StateFailed: finished with an error; no artifact.
	StateFailed State = "failed"
	// StateCanceled: cancelled while queued or running; no artifact.
	StateCanceled State = "canceled"
)

// terminal reports whether the state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one element of a job's SSE stream, stored pre-marshaled so
// replay costs no re-encoding. Type becomes the SSE "event:" field and
// Data the "data:" line.
type Event struct {
	Type string
	Data []byte
}

// job is one accepted submission and its event history. The history is
// the SSE source of truth: subscribers replay it from the start and then
// follow live appends, so a client that connects after completion sees
// the same stream a live follower saw.
type job struct {
	id     string
	spec   experiments.Spec
	key    string // content address (experiments.Spec.Key)
	tenant string
	lane   Lane

	mu       sync.Mutex
	state    State
	errMsg   string
	artifact *runner.Artifact
	fromHit  bool // result was served from cache rather than simulated
	cancel   func()
	events   []Event
	wake     chan struct{} // closed and replaced on each append
	done     chan struct{} // closed on the terminal transition
}

func newJob(id string, spec experiments.Spec, key, tenant string, lane Lane) *job {
	j := &job{id: id, spec: spec, key: key, tenant: tenant, lane: lane,
		state: StateQueued, wake: make(chan struct{}), done: make(chan struct{})}
	j.publishStatusLocked()
	return j
}

// newHitJob builds an already-done job carrying a cached artifact, so a
// cache hit gets the same job/result/events surface as a simulated run.
func newHitJob(id string, spec experiments.Spec, key, tenant string, a *runner.Artifact) *job {
	j := &job{id: id, spec: spec, key: key, tenant: tenant, lane: LaneInteractive,
		state: StateDone, artifact: a, fromHit: true,
		wake: make(chan struct{}), done: make(chan struct{})}
	j.publishStatusLocked()
	close(j.done)
	return j
}

// appendLocked records one event and wakes subscribers. Callers hold
// j.mu (or own the job exclusively during construction).
func (j *job) appendLocked(typ string, payload interface{}) {
	data, err := json.Marshal(payload)
	if err != nil {
		// Payloads are our own structs; a marshal failure is a programming
		// error. Surface it in-band rather than dropping the event.
		data = []byte(`{"error":"event encoding failed"}`)
	}
	j.events = append(j.events, Event{Type: typ, Data: data})
	close(j.wake)
	j.wake = make(chan struct{})
}

// statusPayload is the data of every "status" event.
type statusPayload struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Error    string `json:"error,omitempty"`
	Checksum string `json:"checksum,omitempty"`
	Cache    string `json:"cache,omitempty"`
}

// progressPayload is the data of every "progress" event: one completed
// sweep point inside the experiment.
type progressPayload struct {
	Sweep string `json:"sweep"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

func (j *job) publishStatusLocked() {
	p := statusPayload{ID: j.id, State: j.state, Error: j.errMsg}
	if j.artifact != nil {
		p.Checksum = j.artifact.Checksum
	}
	if j.state == StateDone {
		p.Cache = cacheStateName(j.fromHit)
	}
	j.appendLocked("status", p)
}

func cacheStateName(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// progress records one sweep tick.
func (j *job) progress(sweep string, done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.appendLocked("progress", progressPayload{Sweep: sweep, Done: done, Total: total})
}

// metricsEvent publishes a named pre-marshaled metrics snapshot.
func (j *job) metricsEvent(data []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.events = append(j.events, Event{Type: "metrics", Data: data})
	close(j.wake)
	j.wake = make(chan struct{})
}

// bind attaches the cancel func of the dispatcher's hand-off to a worker.
// The job stays queued until a worker starts it, so a cancel while it
// waits for one still transitions immediately. It is a no-op (reporting
// false) if the job was cancelled first.
func (j *job) bind(cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.cancel = cancel
	return true
}

// setRunning transitions queued -> running when a worker starts the job
// (a retried attempt finds it running already); it reports false if the
// job was cancelled first.
func (j *job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateQueued {
		j.state = StateRunning
		j.publishStatusLocked()
	}
	return j.state == StateRunning
}

// finish moves the job to a terminal state exactly once.
func (j *job) finish(state State, errMsg string, a *runner.Artifact) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.state, j.errMsg, j.artifact = state, errMsg, a
	j.cancel = nil
	j.publishStatusLocked()
	close(j.done)
}

// requestCancel cancels a queued or running job. Queued jobs transition
// immediately, reporting true (the dispatcher skips them or abandons the
// hand-off); running jobs get their context cancelled and transition when
// the sweep drains.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	cancel := j.cancel
	queued := j.state == StateQueued
	if queued {
		j.state = StateCanceled
		j.publishStatusLocked()
		close(j.done)
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return queued
}

// snapshot returns the fields a status view needs under one lock.
func (j *job) snapshot() (state State, errMsg string, a *runner.Artifact, fromHit bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg, j.artifact, j.fromHit
}

// eventsSince returns the events at index >= from, a channel that closes
// on the next append, and whether the stream is complete (terminal state
// reached and every event handed out).
func (j *job) eventsSince(from int) (evs []Event, wake <-chan struct{}, complete bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		evs = j.events[from:]
	}
	return evs, j.wake, j.state.terminal() && from+len(evs) == len(j.events)
}
