// Package des implements a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock over an exact event queue keyed by
// (at, seq): events at equal times are tie-broken by scheduling sequence
// number, so every run with the same inputs produces the same event
// ordering. Concurrent activities are modeled as cooperative processes:
// each process is a goroutine, but a single control token guarantees that
// at most one process (or event callback) runs at any instant, so state
// shared between processes needs no locking.
//
// The scheduling core is built for throughput and is allocation-free in
// steady state:
//
//   - The queue (queue.go) is a one-event front cache over two
//     pointer-free 4-ary heaps of 16-byte (at, key) entries, near-future
//     and far-future, in reusable arrays. Callbacks and process pointers
//     wait in a free-listed side slab, so no event allocates and sifts
//     move plain integers. Process-resume events carry the *Proc directly
//     instead of a closure, so Sleep/Wait/Acquire wake-ups allocate
//     nothing.
//   - Cancelable timers (At/After) draw a generation-counted handle from a
//     free list. The handle holds the callback and tracks the event's heap
//     index, so Cancel removes the event immediately (sift at its index)
//     instead of leaving a tombstone to be popped later; a Timer from a
//     previous generation can never cancel a reused handle.
//   - The control token travels with the goroutines themselves: a parking
//     process drives the dispatch loop inline, so a process that pops its
//     own resume event (the ubiquitous Sleep path) switches with zero
//     channel operations, and a process handing off to another process costs
//     one. The engine's Run goroutine regains the token only when the run
//     terminates or a process exits.
//   - Spawn recycles process records, wake channels, and parked goroutines
//     through a pool, so the cloud model's process-per-request pattern does
//     not start a goroutine per request.
//
// The engine also supports a real-time mode in which virtual delays are
// slept on the wall clock (optionally scaled) and external goroutines may
// inject work with Engine.Inject; this mode backs the live-HTTP serving of
// the simulated cloud. In real-time mode processes never dispatch inline:
// the token always returns to the run loop, which owns wall-clock pacing.
package des

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Time is a virtual timestamp, measured as a duration since the start of the
// simulation. Using time.Duration gives nanosecond resolution and convenient
// formatting.
type Time = time.Duration

// timerHandle is one slot of the engine's cancelable-timer table. Slots are
// recycled through a free list; gen increments on every fire/cancel so stale
// Timer copies referring to a recycled slot are inert. Heap timers and
// slack-wheel timers (wheel.go) share this table, so a Timer value is the
// same opaque handle either way: loc marks which structure idx indexes.
type timerHandle struct {
	fn  func() // callback of a heap timer; wheel timers keep theirs in the wheel node
	gen uint32
	idx int32 // heap index or wheel node index of the live event, -1 when fired/canceled
	loc uint8 // tierNear, tierFar, or locWheel: the structure idx indexes
}

// Timer is a handle to a scheduled callback that can be canceled. The zero
// Timer is valid and inert: Cancel reports false, Pending reports false.
type Timer struct {
	eng *Engine
	id  int32
	gen uint32
}

// Cancel prevents the timer's callback from firing, removing the event from
// the schedule immediately. Canceling an already fired, canceled, or zero
// Timer is a no-op. Cancel reports whether the callback was prevented.
func (t Timer) Cancel() bool {
	e := t.eng
	if e == nil {
		return false
	}
	h := &e.handles[t.id]
	if h.gen != t.gen || h.idx < 0 {
		return false
	}
	if h.loc == locWheel {
		e.wheel.unlink(h.idx)
	} else {
		e.removeAt(h.loc, int(h.idx))
	}
	e.releaseHandle(t.id)
	return true
}

// Pending reports whether the timer's callback is still scheduled.
func (t Timer) Pending() bool {
	if t.eng == nil {
		return false
	}
	h := &t.eng.handles[t.id]
	return h.gen == t.gen && h.idx >= 0
}

// Engine is a discrete-event simulation engine. The zero value is not usable;
// call NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	until Time // horizon of the active Run, 0 = unbounded

	// tiers are the near and far event heaps (queue.go); slots is the side
	// slab holding the payloads of their uncancelable entries.
	tiers     [2][]qentry
	slots     []slot
	freeSlots []int32

	handles     []timerHandle
	freeHandles []int32

	// wheel is the optional coarse-slack timer facility (wheel.go), nil
	// unless SetTimerSlack installed one. It shares the handle table above.
	wheel *wheel

	// next is a one-event front cache: when a virtual-time event schedules
	// its successor and that successor precedes everything in the heaps, it
	// parks here and the dispatch loop takes it back without any heap
	// traffic. Straight-line event chains — a callback-form warm invocation,
	// a process sleeping through consecutive pipeline stages — are exactly
	// this pattern, so the cache removes a push/sift/pop/sift round per
	// chain hop. Invariant: when hasNext is set, next precedes every heap
	// event in (at, seq) order. Only uncancelable events are cached (timer
	// handles track heap indices); real-time mode bypasses the cache
	// because its run loop peeks the heap roots for wall pacing.
	next    event
	hasNext bool

	// mainWake returns the control token to the run loop (Run, RunRealTime,
	// or Close) when a process exits, is killed, or parks at the horizon.
	mainWake chan struct{}

	procs   map[*Proc]struct{}
	pool    []*Proc // exited process records with parked goroutines
	stopped bool

	// Real-time mode.
	realTime      bool
	timeScale     float64 // virtual seconds per wall second multiplier (1 = real time)
	injectMu      sync.Mutex
	injected      []func()
	injectCh      chan struct{} // signaled when something is injected
	injectPending atomic.Bool   // fast-path check before taking injectMu
	started       time.Time
}

// NewEngine returns an engine with the virtual clock at zero.
func NewEngine() *Engine {
	return &Engine{
		mainWake: make(chan struct{}),
		procs:    make(map[*Proc]struct{}),
		injectCh: make(chan struct{}, 1),
	}
}

// NewRealTimeEngine returns an engine that, when run, paces event delivery on
// the wall clock. timeScale compresses virtual time: with timeScale 10, ten
// virtual seconds elapse per wall-clock second. A time scale that is NaN,
// infinite, or <= 0 panics (callers with user-supplied scales validate
// first, e.g. httpfaas.NewServer).
func NewRealTimeEngine(timeScale float64) *Engine {
	if math.IsNaN(timeScale) || math.IsInf(timeScale, 0) || timeScale <= 0 {
		panic(fmt.Sprintf("des: invalid time scale %v", timeScale))
	}
	e := NewEngine()
	e.realTime = true
	e.timeScale = timeScale
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// --- scheduling -------------------------------------------------------------

// schedule registers fn to run at time at (>= now).
func (e *Engine) schedule(at Time, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.enqueue(event{qentry: qentry{at: at, key: e.nextKey()}, fn: fn})
}

// scheduleProc registers a process resume at time at (>= now). This is the
// allocation-free hot path behind Sleep, Signal.Fire, and Resource.Release.
func (e *Engine) scheduleProc(at Time, p *Proc) {
	if at < e.now {
		at = e.now
	}
	e.enqueue(event{qentry: qentry{at: at, key: e.nextKey()}, proc: p})
}

// newHandle draws a timer-handle slot from the free list, growing the table
// only on first use at each depth.
func (e *Engine) newHandle() int32 {
	if n := len(e.freeHandles); n > 0 {
		id := e.freeHandles[n-1]
		e.freeHandles = e.freeHandles[:n-1]
		return id
	}
	id := newRef(len(e.handles))
	e.handles = append(e.handles, timerHandle{})
	return id
}

// releaseHandle retires a fired or canceled timer's handle: the generation
// bump makes every outstanding Timer copy inert before the slot is reused.
func (e *Engine) releaseHandle(id int32) {
	h := &e.handles[id]
	h.fn = nil
	h.idx = -1
	h.gen++
	e.freeHandles = append(e.freeHandles, id)
}

// scheduleTimer registers a cancelable callback. Timers always live in a
// heap (their handles track heap indices), which may require evicting a
// cached event that no longer holds the minimum.
func (e *Engine) scheduleTimer(at Time, fn func()) Timer {
	if at < e.now {
		at = e.now
	}
	id := e.newHandle()
	q := qentry{at: at, key: e.nextKey() | timerBit | uint64(id)}
	if e.hasNext && q.before(e.next.qentry) {
		e.pushEvent(e.next)
		e.next, e.hasNext = event{}, false
	}
	h := &e.handles[id]
	h.fn = fn
	h.loc = e.push(q) // push records the heap index via noteIdx
	return Timer{eng: e, id: id, gen: h.gen}
}

// At schedules fn to run at the given virtual time and returns a cancelable
// Timer. Must be called from simulation context (a process or event callback).
func (e *Engine) At(at Time, fn func()) Timer {
	return e.scheduleTimer(at, fn)
}

// After schedules fn to run d from now.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	return e.scheduleTimer(e.now+d, fn)
}

// Call schedules fn to run at the current virtual instant, after events
// already scheduled for this instant. It is the uncancelable, zero-
// bookkeeping counterpart of After(0, fn): no timer handle is drawn, and a
// reused fn value (a stored method value or pre-built closure) makes the
// call allocation-free. Callback events share the engine's sequence counter
// with process resumes, so a callback chain and a process performing the
// same schedule drain in the identical order, including at timestamp ties.
// Must be called from simulation context.
func (e *Engine) Call(fn func()) { e.schedule(e.now, fn) }

// CallAt schedules fn as an uncancelable callback at the given virtual
// time (clamped to now). See Call for the ordering and allocation contract.
func (e *Engine) CallAt(at Time, fn func()) { e.schedule(at, fn) }

// CallAfter schedules fn as an uncancelable callback d from now. Negative
// durations are treated as zero. See Call for the ordering and allocation
// contract; this is the primitive behind the callback-form warm-invoke
// fast path, where each pipeline stage schedules its successor.
func (e *Engine) CallAfter(d time.Duration, fn func()) { e.schedule(e.now+d, fn) }

// errKilled is the sentinel used to unwind killed processes.
var errKilled = errors.New("des: process killed")

// Run drains events until none remain or the virtual clock would pass
// until. A zero until means run until no events remain. Processes blocked on
// resources or signals when Run returns remain parked; use Close to release
// them.
//
// The calling goroutine holds the control token between events, but hands it
// to processes it resumes; a process chain dispatches events among itself
// and returns the token here only when the horizon is reached or a process
// exits.
func (e *Engine) Run(until Time) {
	e.until = until
	for {
		ev, ok := e.popDue()
		if !ok {
			break
		}
		if e.realTime {
			e.waitWall(ev.at)
			e.drainInjected()
		}
		e.now = ev.at
		if ev.proc != nil {
			ev.proc.wake <- struct{}{}
			<-e.mainWake
			continue
		}
		ev.fn()
	}
	if until != 0 && until > e.now {
		e.now = until
	}
	e.until = 0
}

// dispatch drives the event loop from a process goroutine that is giving up
// control: self is either parking (park) or has just exited and returned its
// record to the pool (run). It fires callback events until a process resume
// surfaces. If that resume is self's own, dispatch returns true and the
// goroutine continues with zero channel operations: a parked process resumes
// its function, and an exited record that a fired callback re-Spawned starts
// its new assignment (sending to its own wake channel would deadlock).
// Otherwise the token moves on — to the resumed process, or to the run loop
// at the horizon — and dispatch returns false: the goroutine must wait on
// its wake channel. Virtual-time mode only.
func (e *Engine) dispatch(self *Proc) bool {
	for {
		ev, ok := e.popDue()
		if !ok {
			e.mainWake <- struct{}{}
			return false
		}
		e.now = ev.at
		if ev.proc == nil {
			ev.fn()
			continue
		}
		if ev.proc == self {
			return true
		}
		ev.proc.wake <- struct{}{}
		return false
	}
}

// RunRealTime services events forever in real-time mode, blocking the calling
// goroutine. It returns when stop is closed. Injected work (via Inject) wakes
// the loop immediately.
func (e *Engine) RunRealTime(stop <-chan struct{}) {
	if !e.realTime {
		panic("des: RunRealTime on a virtual-time engine")
	}
	e.started = time.Now()
	for {
		select {
		case <-stop:
			return
		default:
		}
		e.syncVirtualClock()
		e.drainInjected()
		t := e.minTier()
		if t < 0 {
			// Idle: wait for injection or stop.
			select {
			case <-stop:
				return
			case <-e.injectCh:
				continue
			}
		}
		next := e.tiers[t][0]
		if !e.sleepUntil(next.at, stop) {
			return
		}
		e.syncVirtualClock()
		e.drainInjected()
		if t = e.minTier(); t < 0 || e.tiers[t][0] != next {
			continue // an injection scheduled something earlier
		}
		e.removeAt(uint8(t), 0)
		ev := e.take(next)
		if ev.at > e.now {
			e.now = ev.at
		}
		if ev.proc != nil {
			ev.proc.wake <- struct{}{}
			<-e.mainWake
			continue
		}
		ev.fn()
	}
}

// syncVirtualClock advances the virtual clock to the wall-clock-equivalent
// instant in real-time mode, so work injected after an idle period is
// scheduled relative to "now" rather than to the last fired event. The
// clock never moves backwards.
func (e *Engine) syncVirtualClock() {
	if !e.realTime || e.started.IsZero() {
		return
	}
	v := Time(float64(time.Since(e.started)) * e.timeScale)
	if v > e.now {
		e.now = v
	}
}

// sleepUntil waits on the wall clock until virtual time at is due. It returns
// false if stop fired, true otherwise (including when an injection arrived,
// in which case the caller re-evaluates the heap). To keep pacing error from
// being amplified by the time scale, the final stretch before the deadline
// is spin-waited: OS timers overshoot by around a millisecond, which a 10x
// time scale would turn into 10ms of virtual error per event.
//
// The spin window shrinks as the time scale grows. At high compression the
// virtual-time error from timer overshoot dwarfs what spinning can recover
// (at 1000x even a perfectly timed wake-up is ~100 virtual milliseconds
// coarse), while a fixed 2ms of busy-waiting per far-future event starves
// the serve path of CPU — at scale the engine fires thousands of lifecycle
// events per second, each of which would otherwise spin.
func (e *Engine) sleepUntil(at Time, stop <-chan struct{}) bool {
	const spinWindow = 2 * time.Millisecond
	const minSpinWindow = 100 * time.Microsecond
	spin := spinWindow
	if e.timeScale > 1 {
		spin = time.Duration(float64(spinWindow) / e.timeScale)
		if spin < minSpinWindow {
			spin = minSpinWindow
		}
	}
	wall := e.wallDeadline(at)
	if d := time.Until(wall) - spin; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-stop:
			return false
		case <-e.injectCh:
			return true
		case <-t.C:
		}
	}
	for time.Now().Before(wall) {
		select {
		case <-stop:
			return false
		case <-e.injectCh:
			return true
		default:
			runtime.Gosched()
		}
	}
	return true
}

func (e *Engine) wallDeadline(at Time) time.Time {
	return e.started.Add(time.Duration(float64(at) / e.timeScale))
}

// waitWall is used by Run in real-time mode (tests); it busy-sleeps to the
// wall deadline without injection wake-ups.
func (e *Engine) waitWall(at Time) {
	if e.started.IsZero() {
		e.started = time.Now()
	}
	if d := time.Until(e.wallDeadline(at)); d > 0 {
		time.Sleep(d)
	}
}

// Inject schedules fn to run inside the simulation as soon as possible. It is
// the only Engine method safe to call from outside simulation context and is
// intended for real-time mode (e.g., an HTTP handler submitting a request).
func (e *Engine) Inject(fn func()) {
	e.injectMu.Lock()
	e.injected = append(e.injected, fn)
	e.injectMu.Unlock()
	e.injectPending.Store(true)
	select {
	case e.injectCh <- struct{}{}:
	default:
	}
}

func (e *Engine) drainInjected() {
	// The run loop calls this on every event; skip the mutex when nothing
	// arrived. An Inject racing the Swap is not lost: its append
	// happens-before its Store, so either this drain's critical section
	// sees the item or the flag stays set for the next pass.
	if !e.injectPending.Swap(false) {
		return
	}
	e.injectMu.Lock()
	pending := e.injected
	e.injected = nil
	e.injectMu.Unlock()
	for _, fn := range pending {
		// Schedule at the current instant; runs in (at, seq) order.
		e.schedule(e.now, fn)
	}
}

// Close kills all live processes and releases the pooled goroutines. The
// engine must not be used afterwards.
func (e *Engine) Close() {
	e.stopped = true
	for p := range e.procs {
		p.kill()
	}
	for _, p := range e.pool {
		p.fn = nil
		p.wake <- struct{}{} // pooled runner sees nil fn and exits
	}
	e.pool = nil
	e.tiers = [2][]qentry{}
	e.slots = nil
	e.freeSlots = nil
	e.next = event{}
	e.hasNext = false
	e.handles = nil
	e.freeHandles = nil
	e.wheel = nil
}

// PendingEvents reports the number of scheduled events (including the
// front-cached one and any timers parked on the slack wheel). Canceled
// timers are removed from the schedule immediately, so this count stays
// bounded under timer churn (WaitTimeout cancel/fire cycles).
func (e *Engine) PendingEvents() int {
	n := len(e.tiers[tierNear]) + len(e.tiers[tierFar])
	if e.hasNext {
		n++
	}
	if e.wheel != nil {
		n += e.wheel.count
	}
	return n
}
