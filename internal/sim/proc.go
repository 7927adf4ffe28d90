// iter.Pull needs Go 1.23. The constraint raises only this file's language
// version; a go.mod bump would break the bench module, which pins go 1.22.

//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulated process: a coroutine (iter.Pull, switched without the
// Go scheduler) that can block on simulated time and synchronization
// objects. All Proc methods must be called from the process's own function
// (i.e., while it is the running process); the kernel enforces this and
// panics otherwise, since violating it would break determinism.
type Proc struct {
	eng   *Engine
	id    int
	name  string
	next  func() (struct{}, bool) // resumer → process: run until it yields or returns
	stop  func()                  // unwind a parked or never-started process
	yield func(struct{}) bool     // process → its resumer; false once stopped
	done  bool
	// inChain is set while the process is resumed and has not yet yielded
	// back to its resumer: the scheduler or another parked process (see
	// park).
	inChain bool
	// Blocking reason for deadlock reports, split in two so hot paths
	// park without building a string: the rendered state is state plus
	// the name of obj, the signal waited on if any (e.g. "waiting on
	// signal " + name), rendered only when a report needs it.
	state string
	obj   *Signal
	// switchFn is the resume continuation, bound once at Spawn so waking
	// the process schedules no fresh closure.
	switchFn func()
}

// stateString renders the blocking reason (cold paths only).
func (p *Proc) stateString() string { return blockReason(p.state, p.obj) }

// blockReason renders state followed by obj's name, if obj is not nil.
func blockReason(state string, obj *Signal) string {
	if obj == nil {
		return state
	}
	return state + obj.Name()
}

// killedSentinel is the panic value park raises to unwind a process that
// Engine.Shutdown stopped; the process body's own recover swallows it.
type killedSentinel struct{}

// Spawn creates a process and schedules its first execution at the current
// time. fn runs to completion in simulated time; when it returns the process
// is done. Panics inside fn abort the simulation with a recorded error.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{
		eng:   e,
		id:    len(e.procs),
		name:  name,
		state: "spawned",
	}
	e.procs = append(e.procs, p)
	p.switchFn = func() { e.switchTo(p) }
	if e.track != nil {
		e.track.SetThreadName(TidProc+int64(p.id), "blocked "+name)
	}
	// A coroutine stopped before its first next never enters this body. The
	// recover stays inside it: an escaping panic would propagate out of next.
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				switch _, isKill := r.(killedSentinel); {
				case e.host == p:
					// A callback dispatched on this stack panicked: the
					// run ends as if it had panicked on the scheduler's.
					e.host, e.handoff = nil, nil
					e.eventPanic(r)
				case !isKill && e.err == nil:
					e.err = &PanicError{In: fmt.Sprintf("process %q", p.name), At: e.now,
						Value: r, Stack: string(debug.Stack())}
				}
			}
			p.done = true
			p.state, p.obj = "done", nil
		}()
		fn(p)
	})
	e.After(0, p.switchFn)
	return p
}

// switchTo is the continuation of p's wake event. On the scheduler's
// stack it resumes p. On a parked process's stack it only records p as
// the handoff, which ends that process's dispatch loop; park then resumes
// p from there.
func (e *Engine) switchTo(p *Proc) {
	if p.done {
		return
	}
	if e.host != nil {
		e.handoff = p
		return
	}
	if e.running != nil {
		panic("sim: switchTo while a process is running")
	}
	e.resume(p)
}

// resume transfers control to q, which joins the resume chain, and
// returns once q yields back or finishes: two coroutine switches.
func (e *Engine) resume(q *Proc) {
	if q.inChain {
		panic(fmt.Sprintf("sim: resuming process %q, which is already on the resume chain", q.name))
	}
	q.inChain = true
	e.running = q
	q.state, q.obj = "running", nil
	e.nSwitches += 2
	q.next()
	q.inChain = false
	e.running = nil
}

// park blocks the calling process until its wake event is dispatched. The
// process runs the dispatch loop on its own stack meanwhile, and the loop
// ends in one of three ways:
//   - it reaches p's own wake: park returns with no switch;
//   - it reaches the wake of a process q that is not on the resume chain:
//     p resumes q directly, and keeps dispatching once q yields back or
//     finishes;
//   - it reaches the wake of an ancestor of p on the chain, or the run
//     ends (deadline, Stop, error, no event left): p yields to its
//     resumer, which decides the same way, so control unwinds one level
//     at a time to that ancestor or to the scheduler.
//
// The state/obj pair documents what the process is waiting for; it is
// only rendered to a string when a deadlock report or timeline span needs
// it, so parking itself allocates nothing. The span renders it from
// park's own arguments: resume has reset p.state by then.
func (p *Proc) park(state string, obj *Signal) {
	p.checkRunning()
	p.state, p.obj = state, obj
	e := p.eng
	blockedAt := e.now
	e.running = nil
	for {
		e.host = p
		e.dispatch() // returns at once while a handoff is pending or the run is over
		e.host = nil
		q := e.handoff
		if q == p {
			e.handoff, e.running = nil, p
			break
		}
		if q != nil && !q.inChain {
			e.handoff = nil
			e.resume(q)
			continue
		}
		if !p.yield(struct{}{}) {
			panic(killedSentinel{})
		}
		break // resumed by whoever dispatched p's wake
	}
	if e.track != nil && e.now > blockedAt {
		e.track.Span(TidProc+int64(p.id), blockReason(state, obj), "block", blockedAt, e.now)
	}
	p.state, p.obj = "running", nil
}

func (p *Proc) checkRunning() {
	if p.eng.running != p {
		panic(fmt.Sprintf("sim: process method on %q called from outside its own context", p.name))
	}
}

// wake schedules the process to resume at the current time. Safe from any
// simulation context (event or another process).
//
// Wakes are level-triggered: every blocking primitive rechecks its condition
// in a loop after resuming, so a stale wake (e.g. from a WaitAny
// registration whose other signal fired later) is harmless — the process
// just re-parks.
func (p *Proc) wake() {
	e := p.eng
	e.nWakes++
	e.After(0, p.switchFn)
}

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep blocks the process for d of simulated time. Sleep(0) returns
// immediately without yielding; use Yield to let other same-timestamp work
// run first.
func (p *Proc) Sleep(d Duration) {
	p.checkRunning()
	if d <= 0 {
		return
	}
	e := p.eng
	target := e.now.Add(d)
	e.At(target, p.switchFn)
	for e.now < target {
		p.park("sleeping", nil)
	}
}

// Yield gives other ready events/processes at the current timestamp a chance
// to run before continuing.
func (p *Proc) Yield() {
	p.checkRunning()
	p.wake()
	p.park("yielding", nil)
}
