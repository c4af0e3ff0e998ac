package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// processStart approximates process start: package variables initialize
// before main runs.
var processStart = time.Now()

// benchWorkers is the shard-worker and client-worker count of every timed
// call: one per CPU of the two-CPU reference machine.
const benchWorkers = 2

const (
	metricHeapObjects = "/memory/classes/heap/objects:bytes"
	metricAllocs      = "/gc/heap/allocs:objects"
	metricGCCycles    = "/gc/cycles/total:gc-cycles"
	metricSchedLat    = "/sched/latencies:seconds"
)

// heapSampler polls the bytes held in heap objects from its own goroutine
// and keeps the maximum since the last reset: the true peak during a timed
// call, not a value read once at exit.
type heapSampler struct {
	peakBytes atomic.Uint64
	quit      chan struct{}
	wg        sync.WaitGroup
}

// heapSampleEvery is the polling period; a heap peak shorter than this can
// be missed.
const heapSampleEvery = time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: metricHeapObjects}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-t.C:
				h.observe(s)
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(s []metrics.Sample) {
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peakBytes.Load()
		if v <= old || h.peakBytes.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset starts a new peak window at the current heap size.
func (h *heapSampler) reset() {
	h.peakBytes.Store(0)
	h.observe([]metrics.Sample{{Name: metricHeapObjects}})
}

// peak reads the window's maximum, sampling once more so a call shorter
// than the polling period still reports its end state.
func (h *heapSampler) peak() uint64 {
	h.observe([]metrics.Sample{{Name: metricHeapObjects}})
	return h.peakBytes.Load()
}

func (h *heapSampler) stop() {
	close(h.quit)
	h.wg.Wait()
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSnapshot holds the cumulative runtime counters a call's deltas
// are taken from.
type runtimeSnapshot struct {
	allocs, gcCycles uint64
	sched            []uint64
	schedBounds      []float64
}

func readRuntime() runtimeSnapshot {
	s := []metrics.Sample{{Name: metricAllocs}, {Name: metricGCCycles}, {Name: metricSchedLat}}
	metrics.Read(s)
	h := s[2].Value.Float64Histogram()
	return runtimeSnapshot{
		allocs:      s[0].Value.Uint64(),
		gcCycles:    s[1].Value.Uint64(),
		sched:       append([]uint64(nil), h.Counts...),
		schedBounds: h.Buckets,
	}
}

// measureCall runs one timed call, after a collection so each call starts
// from the same live heap, and returns its host-side measurements.
func measureCall(sess session, sampler *heapSampler, workers int) (callStats, error) {
	runtime.GC()
	before := readRuntime()
	cpu0 := processCPU()
	sampler.reset()
	t0 := time.Now()
	summarize, err := sess.call(workers)
	wall := time.Since(t0)
	cpu := processCPU() - cpu0
	peak := sampler.peak()
	after := readRuntime()
	if err != nil {
		return callStats{}, err
	}
	out := summarize()
	sched := make([]uint64, len(after.sched))
	for i := range sched {
		sched[i] = after.sched[i] - before.sched[i]
	}
	return callStats{
		out:      out,
		wall:     wall,
		cpu:      cpu,
		allocs:   after.allocs - before.allocs,
		peakHeap: peak,
		gcCycles: after.gcCycles - before.gcCycles,
		sched:    sched,
	}, nil
}

// schedBounds are the bucket boundaries of the scheduling-latency
// histogram; they are fixed for the life of the process.
var schedBounds = readRuntime().schedBounds

// histQuantile returns the upper bound of the histogram bucket holding the
// q-th quantile of counts, in seconds (0 for an empty histogram).
func histQuantile(counts []uint64, bounds []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum > rank {
			if math.IsInf(bounds[i+1], 1) {
				return bounds[i]
			}
			return bounds[i+1]
		}
	}
	return bounds[len(bounds)-1]
}
