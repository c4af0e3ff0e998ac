package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime/pprof"
	"time"
)

// runTraced is the per-layer run. It makes timed calls without and then
// with a CPU profile, splits the profiled CPU across layers, checks that one
// shard worker reproduces the two-worker digest, times direct calls into
// each layer, and reports the counts the public results expose. With
// xcheck set, it also prints the microprobes' ratios to the go test
// benchmarks recorded in that file.
func runTraced(w *workload, seed int64, budget time.Duration, chk *checks, xcheck string, stderr io.Writer) (*result, error) {
	sess, err := w.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer sess.close()
	sampler := startHeapSampler()
	defer sampler.stop()

	plain, err := timedCalls(sess, sampler, budget/2, chk)
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	profiled, err := timedCalls(sess, sampler, budget/2, chk)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	chk.sameDigest("profiled call", plain[0].out.digest, profiled[0].out.digest)

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares, err := layerShares(samples)
	if err != nil {
		return nil, err
	}

	// Worker invariance: one shard worker must give the same simulated
	// results as two.
	serial, err := measureCall(sess, sampler, 1)
	if err != nil {
		return nil, err
	}
	chk.outcome(serial.out)
	chk.sameDigest("workers=1 vs workers=2", plain[0].out.digest, serial.out.digest)

	probed, err := runProbes(seed)
	if err != nil {
		return nil, err
	}
	if xcheck != "" {
		if err := writeCrossCheck(stderr, xcheck, probed); err != nil {
			return nil, err
		}
	}

	res := &result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	for name, v := range shares {
		put(name, v, "%")
	}
	for _, p := range probes {
		put(p.name, probed[p.name], unitName(p.unit))
	}
	calls := append(append([]callStats(nil), plain...), profiled...)
	for _, c := range calls {
		res.Attempted += c.out.ops
		res.Failed += c.out.failed
	}
	last := profiled[len(profiled)-1].out
	for _, name := range countMetrics {
		put(name.name, last.counts[name.name], name.unit)
	}
	put("fail_pct", pct(res.Failed, res.Attempted), "%")
	put("des.virtual_per_host", medianOf(profiled, func(c callStats) float64 {
		return c.out.virtual.Seconds() / c.wall.Seconds()
	}), "s/s")
	put("runtime.gc_cycles", medianOf(profiled, func(c callStats) float64 { return float64(c.gcCycles) }), "count")
	sched := make([]uint64, len(profiled[0].sched))
	for _, c := range profiled {
		for i, n := range c.sched {
			sched[i] += n
		}
	}
	put("runtime.sched_latency_p99_us", 1e6*histQuantile(sched, schedBounds, 0.99), "us")
	opsPerSec := func(c callStats) float64 { return float64(c.out.ops) / c.wall.Seconds() }
	off, on := medianOf(plain, opsPerSec), medianOf(profiled, opsPerSec)
	put("bench.trace_overhead_pct", 100*(off-on)/off, "%")
	return res, nil
}

// countMetrics are the per-layer counts read from public results; a
// workload whose result does not expose a count reports 0.
var countMetrics = []struct{ name, unit string }{
	{"cloud.cold_pct", "%"},
	{"cloud.expirations", "count"},
	{"econ.suspends", "count"},
	{"econ.resumes", "count"},
	{"workflow.barriers_completed", "count"},
	{"trace.retained", "count"},
	{"trace.dropped", "count"},
	{"stress.dials", "count"},
	{"stress.send_lag_p99_ms", "ms"},
	{"stress.intended_p99_ms", "ms"},
	{"stress.stall_count", "count"},
	{"stress.http_p50_us", "us"},
}

func unitName(d time.Duration) string {
	switch d {
	case time.Nanosecond:
		return "ns"
	case time.Microsecond:
		return "us"
	case time.Millisecond:
		return "ms"
	}
	return d.String()
}
