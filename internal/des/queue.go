package des

import "time"

// This file implements the engine's exact event queue: a one-event front
// cache over two pointer-free 4-ary min-heaps.
//
// Heap entries are 16-byte (at, key) pairs, where key packs the scheduling
// sequence number above a reference to the event's payload: a timer-handle
// slot for cancelable timers, or a slot of the side slab for everything
// else. Callbacks and process pointers never move during a sift, so sifts
// copy plain integers (no GC write barriers, nothing for the collector to
// scan) and a 4-ary sibling group fills one 64-byte cache line.
//
// Events are split across the two heaps by their delay when scheduled:
// those due within nearWindow go to the near tier, the rest to the far
// tier. A population replay keeps every tenant's next arrival and every
// keep-alive timer pending at once — thousands of far-future entries —
// while the pipeline-stage hops of in-flight invocations are a few dozen
// entries microseconds to milliseconds out. With one heap every hop sifts
// through the whole population; with two tiers it sifts through the few
// dozen. Dispatch takes the smaller of the two roots, so the pop order is
// exactly (at, seq) whichever tier an event landed in: the split is a
// performance choice, never a semantic one.

// nearWindow is the delay below which an event goes to the near tier. It
// spans a warm invocation's pipeline (tens of milliseconds) and stays well
// under inter-arrival times and keep-alives (seconds to minutes).
const nearWindow = 100 * time.Millisecond

// Entry key layout: seq<<seqShift | timerBit | ref.
const (
	refBits  = 24
	refMask  = 1<<refBits - 1
	timerBit = 1 << refBits // ref is a timer-handle slot, not a slab slot
	seqShift = refBits + 1
	maxSeq   = 1<<(64-seqShift) - 1
)

// Heap locations recorded in a timer handle.
const (
	tierNear = 0
	tierFar  = 1
	locWheel = 2 // the handle's idx indexes the timer wheel's node array
)

// qentry is one heap entry. Sequence numbers are unique, so comparing keys
// compares sequence numbers and the ref bits never decide an order.
type qentry struct {
	at  Time
	key uint64
}

// before orders entries by (at, seq).
func (a qentry) before(b qentry) bool {
	return a.at < b.at || (a.at == b.at && a.key < b.key)
}

// event is a dispatched (or front-cached) event with its payload resolved.
// Exactly one of fn and proc is set: fn events invoke a callback, proc
// events transfer control to a parked process.
type event struct {
	qentry
	fn   func()
	proc *Proc
}

// slot holds the payload of an uncancelable event while it waits in a heap.
type slot struct {
	fn   func()
	proc *Proc
}

// nextKey draws the next sequence number in key position.
func (e *Engine) nextKey() uint64 {
	e.seq++
	if e.seq > maxSeq {
		panic("des: event sequence number overflow")
	}
	return e.seq << seqShift
}

// newRef checks that a freshly grown slab or handle table still fits the
// key's ref field.
func newRef(n int) int32 {
	if n > refMask {
		panic("des: more than 16M pending events")
	}
	return int32(n)
}

// enqueue places a freshly sequenced uncancelable event: into the front
// cache when it precedes everything pending, into a heap otherwise.
// Real-time mode bypasses the cache because its run loop peeks the heap
// roots for wall pacing.
func (e *Engine) enqueue(ev event) {
	if e.realTime {
		e.pushEvent(ev)
		return
	}
	if !e.hasNext {
		if t := e.minTier(); t < 0 || ev.before(e.tiers[t][0]) {
			e.next, e.hasNext = ev, true
		} else {
			e.pushEvent(ev)
		}
		return
	}
	if ev.before(e.next.qentry) {
		e.pushEvent(e.next)
		e.next = ev
	} else {
		e.pushEvent(ev)
	}
}

// pushEvent parks an uncancelable event's payload in a slab slot and
// pushes its entry.
func (e *Engine) pushEvent(ev event) {
	var s int32
	if n := len(e.freeSlots); n > 0 {
		s = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
	} else {
		s = newRef(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	e.slots[s] = slot{fn: ev.fn, proc: ev.proc}
	e.push(qentry{at: ev.at, key: ev.key | uint64(s)})
}

// push adds an entry to the tier its delay selects and returns that tier.
func (e *Engine) push(q qentry) uint8 {
	t := uint8(tierFar)
	if q.at-e.now < nearWindow {
		t = tierNear
	}
	e.tiers[t] = append(e.tiers[t], q)
	e.siftUp(t, len(e.tiers[t])-1, q)
	return t
}

// minTier returns the tier holding the earliest heap entry, or -1 when both
// heaps are empty.
func (e *Engine) minTier() int {
	near, far := e.tiers[tierNear], e.tiers[tierFar]
	if len(near) == 0 {
		if len(far) == 0 {
			return -1
		}
		return tierFar
	}
	if len(far) == 0 || near[0].before(far[0]) {
		return tierNear
	}
	return tierFar
}

// popDue removes and returns the earliest pending event, unless none is
// left or it lies beyond the active run's horizon. The front cache, when
// occupied, holds the earliest event, so it alone decides.
func (e *Engine) popDue() (event, bool) {
	if e.hasNext {
		if e.until != 0 && e.next.at > e.until {
			return event{}, false
		}
		ev := e.next
		e.next, e.hasNext = event{}, false
		return ev, true
	}
	t := e.minTier()
	if t < 0 {
		return event{}, false
	}
	q := e.tiers[t][0]
	if e.until != 0 && q.at > e.until {
		return event{}, false
	}
	e.removeAt(uint8(t), 0)
	return e.take(q), true
}

// take resolves a popped entry's payload and releases its slab slot or
// timer handle.
func (e *Engine) take(q qentry) event {
	ev := event{qentry: q}
	ref := int32(q.key & refMask)
	if q.key&timerBit != 0 {
		h := &e.handles[ref]
		ev.fn = h.fn
		e.releaseHandle(ref)
		return ev
	}
	s := &e.slots[ref]
	ev.fn, ev.proc = s.fn, s.proc
	*s = slot{}
	e.freeSlots = append(e.freeSlots, ref)
	return ev
}

// --- 4-ary heaps ------------------------------------------------------------
//
// Children of slot i live at 4i+1..4i+4. Every move of a timer entry
// updates its handle's idx, which is what makes O(log n) removal at Cancel
// possible.

// noteIdx records a timer entry's heap slot in its handle.
func (e *Engine) noteIdx(i int, q qentry) {
	if q.key&timerBit != 0 {
		e.handles[q.key&refMask].idx = int32(i)
	}
}

// siftUp places q at slot i of tier t, moving it toward the root until
// ordered.
func (e *Engine) siftUp(t uint8, i int, q qentry) {
	h := e.tiers[t]
	for i > 0 {
		parent := (i - 1) / 4
		p := h[parent]
		if p.before(q) {
			break
		}
		h[i] = p
		e.noteIdx(i, p)
		i = parent
	}
	h[i] = q
	e.noteIdx(i, q)
}

// minChild returns the index of slot i's smallest child, -1 at a leaf. A
// full sibling group is decided as a two-round tournament: the two
// first-round comparisons are independent, so they overlap in the CPU.
func minChild(h []qentry, i int) int {
	first := 4*i + 1
	if first+4 <= len(h) {
		c := h[first : first+4 : first+4]
		a, b := 0, 2
		if c[1].before(c[0]) {
			a = 1
		}
		if c[3].before(c[2]) {
			b = 3
		}
		if c[b].before(c[a]) {
			a = b
		}
		return first + a
	}
	if first >= len(h) {
		return -1
	}
	m := first
	for c := first + 1; c < len(h); c++ {
		if h[c].before(h[m]) {
			m = c
		}
	}
	return m
}

// removeAt deletes the entry at slot i of tier t — the root on a pop, any
// slot on a timer cancel — with a bottom-up sift: the hole left at i
// descends along smaller children to a leaf, and the tail entry fills it
// from there upward. The tail entry almost always belongs near the leaves,
// so this skips the comparison against it at every level that a top-down
// sift pays.
func (e *Engine) removeAt(t uint8, i int) {
	h := e.tiers[t]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.tiers[t] = h
	if i == n {
		return
	}
	for m := minChild(h, i); m >= 0; m = minChild(h, i) {
		h[i] = h[m]
		e.noteIdx(i, h[i])
		i = m
	}
	e.siftUp(t, i, last)
}
