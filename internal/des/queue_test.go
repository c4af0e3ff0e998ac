package des

import (
	"sort"
	"testing"
	"time"
)

// queueModel is the reference the event queue is checked against: a plain
// slice of pending events kept sorted by (at, seq), with sequence numbers
// drawn exactly as the engine draws them (one per scheduled event).
type queueModel struct {
	now     Time
	seq     uint64
	pending []modelEvent
}

type modelEvent struct {
	at    Time
	seq   uint64
	label int
}

func (m *queueModel) schedule(at Time, label int) {
	if at < m.now {
		at = m.now
	}
	m.seq++
	ev := modelEvent{at: at, seq: m.seq, label: label}
	i := sort.Search(len(m.pending), func(i int) bool {
		p := m.pending[i]
		return p.at > ev.at || (p.at == ev.at && p.seq > ev.seq)
	})
	m.pending = append(m.pending, modelEvent{})
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = ev
}

// remove deletes the pending event with the given label, reporting whether
// it was pending.
func (m *queueModel) remove(label int) bool {
	for i, p := range m.pending {
		if p.label == label {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return true
		}
	}
	return false
}

// fuzzDelay decodes one byte into a delay. The classes put delays at zero
// (ties with the current instant), on a coarse 10ms grid that straddles the
// near/far tier boundary (ties between unrelated events), within a few
// microseconds of the boundary itself, and seconds out in the far tier.
func fuzzDelay(b byte) Time {
	v := Time(b >> 2)
	switch b & 3 {
	case 0:
		return 0
	case 1:
		return v * 10 * time.Millisecond
	case 2:
		return nearWindow + (v-32)*time.Microsecond
	default:
		return v * time.Second
	}
}

// runQueueScript drives the engine and the model through the same
// operation script and fails at the first divergence in firing order,
// firing time, Cancel or Pending results, or PendingEvents.
//
// The script is a sequence of two-byte operations split into groups by
// separator operations. Group 0 runs before Run; group k runs inside the
// callback of the k-th event to fire, so operations happen at many virtual
// times, from inside callbacks, with the front cache both full and empty.
func runQueueScript(t *testing.T, data []byte) {
	e := NewEngine()
	defer e.Close()
	m := &queueModel{}
	var groups [][][2]byte
	cur := [][2]byte{}
	for i := 0; i+1 < len(data); i += 2 {
		if data[i]%8 == 7 {
			groups = append(groups, cur)
			cur = [][2]byte{}
			continue
		}
		cur = append(cur, [2]byte{data[i], data[i+1]})
	}
	groups = append(groups, cur)

	var timers []Timer
	var timerLabels []int
	labels := 0
	fired := 0
	var run func(group int)
	newEvent := func() func() {
		labels++
		label := labels
		return func() {
			if len(m.pending) == 0 {
				t.Fatalf("event %d fired with an empty model", label)
			}
			want := m.pending[0]
			if want.label != label || want.at != e.Now() {
				t.Fatalf("fired event %d at %v, model expected event %d at %v", label, e.Now(), want.label, want.at)
			}
			m.pending = m.pending[1:]
			m.now = e.Now()
			fired++
			run(fired)
		}
	}
	run = func(group int) {
		if group >= len(groups) {
			return
		}
		for _, op := range groups[group] {
			d := fuzzDelay(op[1])
			// Absolute-time operations aim up to 5ms into the past to
			// exercise the clamp to now.
			at := e.Now() + d - 5*time.Millisecond
			switch op[0] % 8 {
			case 0:
				fn := newEvent()
				timers = append(timers, e.At(at, fn))
				timerLabels = append(timerLabels, labels)
				m.schedule(at, labels)
			case 1:
				fn := newEvent()
				timers = append(timers, e.After(d, fn))
				timerLabels = append(timerLabels, labels)
				m.schedule(m.now+d, labels)
			case 2:
				e.CallAt(at, newEvent())
				m.schedule(at, labels)
			case 3:
				e.CallAfter(d, newEvent())
				m.schedule(m.now+d, labels)
			case 4, 5:
				// Cancel any timer ever issued: pending, fired, or
				// already canceled (stale).
				if len(timers) == 0 {
					continue
				}
				k := int(op[1]) % len(timers)
				if got, want := timers[k].Cancel(), m.remove(timerLabels[k]); got != want {
					t.Fatalf("Cancel(timer of event %d) = %v, model says %v", timerLabels[k], got, want)
				}
			case 6:
				if len(timers) == 0 {
					continue
				}
				k := int(op[1]) % len(timers)
				want := false
				for _, p := range m.pending {
					want = want || p.label == timerLabels[k]
				}
				if got := timers[k].Pending(); got != want {
					t.Fatalf("Pending(timer of event %d) = %v, model says %v", timerLabels[k], got, want)
				}
			}
			if got := e.PendingEvents(); got != len(m.pending) {
				t.Fatalf("PendingEvents = %d, model holds %d", got, len(m.pending))
			}
		}
	}
	run(0)
	e.Run(0)
	if len(m.pending) != 0 || e.PendingEvents() != 0 {
		t.Fatalf("drained engine left %d events, model %d", e.PendingEvents(), len(m.pending))
	}
}

// FuzzEventQueue checks the two-tier queue against the sorted-slice model:
// any mix of At/After/CallAt/CallAfter/Cancel/stale-Cancel must fire in
// exactly (at, seq) order with PendingEvents tracking the model throughout.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{3, 0, 3, 0, 2, 4, 7, 0, 3, 1})                                  // ties at now, a chain hop
	f.Add([]byte{0, 130, 1, 130, 2, 126, 3, 134, 7, 0, 4, 0, 4, 1, 6, 0})        // around the tier boundary
	f.Add([]byte{1, 7, 1, 11, 3, 5, 7, 0, 4, 1, 3, 9, 7, 0, 5, 0, 0, 3, 7, 0})   // far timers, cancel, stale cancel
	f.Add([]byte{2, 9, 2, 9, 0, 9, 1, 9, 3, 9, 7, 0, 3, 9, 7, 0, 3, 9, 6, 0, 4}) // equal-time ties across kinds
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		runQueueScript(t, data)
	})
}

// TestQueueTierSplit pins the tier placement and the cross-tier dispatch:
// an event due within nearWindow lands in the near heap, a later one in the
// far heap, and dispatch still interleaves the two in (at, seq) order —
// including a tie across tiers, where the far entry was scheduled first.
func TestQueueTierSplit(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var order []int
	mark := func(i int) func() { return func() { order = append(order, i) } }
	tie := nearWindow + time.Millisecond
	e.At(tie, mark(3))                         // far
	e.At(time.Millisecond, mark(1))            // near
	e.At(nearWindow-time.Millisecond, mark(2)) // near
	e.At(2*time.Second, mark(6))               // far
	e.At(tie, mark(4))                         // far, tied with 3, later seq
	if n, f := len(e.tiers[tierNear]), len(e.tiers[tierFar]); n != 2 || f != 3 {
		t.Fatalf("near/far = %d/%d entries, want 2/3", n, f)
	}
	e.CallAt(10*time.Millisecond, func() {
		// Now within nearWindow of the tie: this one lands in the near
		// heap with the latest seq, and must still fire after 3 and 4.
		e.CallAt(tie, mark(5))
		if n := len(e.tiers[tierNear]); n != 2 {
			t.Errorf("near = %d entries after the tied schedule, want 2", n)
		}
	})
	e.Run(0)
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v, want 1..6", order)
		}
	}
	if len(order) != 6 {
		t.Fatalf("fired %d of 6", len(order))
	}
}

// TestQueueCancelInEitherTier cancels timers from both tiers and from the
// middle of each heap, checking the survivors still fire in order.
func TestQueueCancelInEitherTier(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var order []Time
	var timers []Timer
	for i := 0; i < 40; i++ {
		d := Time(i*7%40) * 10 * time.Millisecond // 0..390ms, both tiers
		timers = append(timers, e.After(d, func() { order = append(order, e.Now()) }))
	}
	canceled := 0
	for i := 0; i < len(timers); i += 3 {
		if !timers[i].Cancel() {
			t.Fatalf("timer %d not cancelable", i)
		}
		canceled++
	}
	e.Run(0)
	if len(order) != 40-canceled {
		t.Fatalf("fired %d, want %d", len(order), 40-canceled)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("fired out of order: %v", order)
		}
	}
}

// TestQueueKeyOverflowPanics pins the packed-key bounds: the sequence
// counter and the payload references must fail loudly, never wrap.
func TestQueueKeyOverflowPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	e := NewEngine()
	defer e.Close()
	e.seq = maxSeq
	mustPanic("sequence overflow", func() { e.Call(func() {}) })
	mustPanic("ref overflow", func() { newRef(refMask + 1) })
	if got := newRef(refMask); got != refMask {
		t.Fatalf("newRef(refMask) = %d", got)
	}
}

// BenchmarkEventQueueMixed is the population replay's queue shape: about
// 20 chained near-future events (the pipeline hops of in-flight
// invocations) over 4096 far-future timers (tenant arrivals and keep-alive
// expiries), with a keep-alive cancel and re-arm every tenth hop. One op is
// one chain hop. It must stay allocation-free.
func BenchmarkEventQueueMixed(b *testing.B) {
	const chains = 20
	const far = 4096
	const life = 5 * time.Minute
	e := NewEngine()
	defer e.Close()
	timers := make([]Timer, far)
	expire := func() {}
	for i := range timers {
		timers[i] = e.After(life+Time(i)*time.Millisecond, expire)
	}
	hops, stop, refresh := 0, 0, 0
	hopFns := make([]func(), chains)
	for c := range hopFns {
		d := Time(c+1) * 37 * time.Microsecond
		c := c
		hopFns[c] = func() {
			hops++
			if hops%10 == 0 {
				k := refresh % far
				refresh++
				timers[k].Cancel()
				timers[k] = e.After(life, expire)
			}
			if hops < stop {
				e.CallAfter(d, hopFns[c])
			}
		}
	}
	start := func(n int) {
		hops, stop = 0, n
		for _, fn := range hopFns {
			e.Call(fn)
		}
		// The chains together hop about once per 10µs of virtual time, so
		// this horizon outlasts them; far timers beyond it stay put (for
		// n above ~8M some expire, a negligible tail).
		e.Run(e.Now() + Time(n+chains)*37*time.Microsecond)
	}
	start(1000) // warm: grow the heaps, slab and handle table
	b.ReportAllocs()
	b.ResetTimer()
	start(b.N)
}
