package des

import "fmt"

// Proc is the handle a simulated process uses to interact with virtual time.
// A process is a goroutine scheduled cooperatively by the engine: exactly one
// process (or event callback) executes at a time, so processes may freely
// mutate shared simulation state between blocking calls.
//
// Process records, their wake channels, and their goroutines are pooled:
// when a process function returns, the goroutine parks and the record goes
// back to the engine's pool for the next Spawn. All pool bookkeeping happens
// while the exiting process still holds the control token, and the token
// handoff itself (a channel operation) orders it before any reuse, so the
// pool needs no locking.
type Proc struct {
	eng    *Engine
	name   string
	fn     func(p *Proc)
	wake   chan struct{}
	killed bool
	done   bool
}

// Spawn starts fn as a new process at the current virtual time, reusing a
// pooled goroutine when one is available. It must be called from simulation
// context (another process, an event callback, or before Run). The process
// begins executing when the engine reaches the spawning instant.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.pool); n > 0 {
		p = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		p.name, p.fn = name, fn
		p.killed, p.done = false, false
	} else {
		p = &Proc{eng: e, name: name, fn: fn, wake: make(chan struct{})}
		go p.run()
	}
	e.procs[p] = struct{}{}
	e.scheduleProc(e.now, p)
	return p
}

// run is the root of a pooled process goroutine. Each loop iteration serves
// one Spawn assignment: wait for the first resume, execute the process
// function, return the record to the pool, and hand the control token back
// to the engine's run loop. A wake-up with no assigned function is the
// engine shutting the pool down.
func (p *Proc) run() {
	e := p.eng
	// reassigned is set when the exit handoff popped this record's own
	// first-resume event (a callback it fired re-Spawned the record): the
	// goroutine already holds the control token and must not wait for a
	// wake-up that nobody else will send.
	reassigned := false
	for {
		if !reassigned {
			<-p.wake
		}
		reassigned = false
		if p.fn == nil {
			return // Close drained the pool
		}
		p.exec()
		p.fn = nil
		if e.stopped {
			// Killed during Close: acknowledge and exit for good.
			e.mainWake <- struct{}{}
			return
		}
		e.pool = append(e.pool, p)
		// Exit handoff: fire pending callbacks, transfer to the next
		// resumed process, or return the token to Run at the horizon. In
		// real-time mode the run loop owns pacing, so always return there.
		if e.realTime {
			e.mainWake <- struct{}{}
		} else {
			reassigned = e.dispatch(p)
		}
	}
}

// exec runs one assignment, unwinding kill panics and annotating real ones.
func (p *Proc) exec() {
	defer func() {
		p.done = true
		delete(p.eng.procs, p)
		if r := recover(); r != nil && r != errKilled {
			// Re-panic real bugs with process context attached.
			panic(fmt.Sprintf("des: process %q panicked: %v", p.name, r))
		}
	}()
	if p.killed {
		panic(errKilled)
	}
	p.fn(p)
}

// park blocks the process until its next resume event fires. The caller must
// have arranged for a future resume (a scheduled event, a resource grant, or
// a signal registration) before calling park.
//
// In virtual-time mode the parking goroutine keeps the control token and
// drives the dispatch loop itself: if the next due event is this process's
// own resume, park returns without any channel operation — the dominant
// Sleep path costs one heap push and one pop.
func (p *Proc) park() {
	e := p.eng
	if e.realTime {
		e.mainWake <- struct{}{}
	} else if e.dispatch(p) {
		if p.killed {
			panic(errKilled)
		}
		return
	}
	<-p.wake
	if p.killed {
		panic(errKilled)
	}
}

// kill unwinds a parked process. Called only from Engine.Close, which holds
// the control token; the killed goroutine acknowledges via mainWake before
// exiting, so Close never races the unwind.
func (p *Proc) kill() {
	if p.done {
		return
	}
	p.killed = true
	p.wake <- struct{}{}
	<-p.eng.mainWake
}

// Engine returns the engine that owns this process.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process still yields to the scheduler).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.eng.scheduleProc(p.eng.now+d, p)
	p.park()
}

// Yield reschedules the process at the current instant, letting other work
// scheduled for this time run first.
func (p *Proc) Yield() { p.Sleep(0) }
