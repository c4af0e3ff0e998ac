package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/stellar-repro/stellar/internal/azuretrace"
	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/econ"
	"github.com/stellar-repro/stellar/internal/providers"
	"github.com/stellar-repro/stellar/internal/stats/sketch"
)

// A probe times direct calls into one layer's public functions. Each probe
// runs probeReps times and reports the median cost per call.
type probe struct {
	name string
	unit time.Duration // reporting unit: ns, us or ms per call
	// baseline is the go test benchmark the probe mirrors, if any.
	baseline string
	// run makes its calls and returns how many it made and how long they
	// took, excluding any set-up.
	run func(seed int64) (calls int, took time.Duration, err error)
}

const probeReps = 5

const (
	// shallowDepth and deepDepth are the pending-event counts of the event
	// probes: a single self-rescheduling timer, as in a warm-path shard, and
	// a queue as deep as a population-replay shard's keep-alive timers and
	// tenant arrivals.
	shallowDepth = 1
	deepDepth    = 4096
	eventCalls   = 200_000
)

var probes = []probe{
	{"des.event_ns.shallow", time.Nanosecond, "BenchmarkEventThroughput", func(int64) (int, time.Duration, error) {
		return holdEvents(shallowDepth, eventCalls)
	}},
	{"des.event_ns.deep", time.Nanosecond, "", func(int64) (int, time.Duration, error) {
		return holdEvents(deepDepth, eventCalls)
	}},
	{"des.proc_switch_ns", time.Nanosecond, "BenchmarkProcessSwitch", func(int64) (int, time.Duration, error) {
		const n = 200_000
		e := des.NewEngine()
		defer e.Close()
		e.Spawn("probe", func(p *des.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		start := time.Now()
		e.Run(0)
		return n, time.Since(start), nil
	}},
	{"cloud.warm_invoke_ns", time.Nanosecond, "BenchmarkWarmInvokeCallback", warmInvokes},
	{"cloud.cold_invoke_us", time.Microsecond, "", coldInvokes},
	{"dist.lognormal_ns", time.Nanosecond, "", func(seed int64) (int, time.Duration, error) {
		const n = 1_000_000
		d := dist.LogNormalMedTail(40*time.Millisecond, 200*time.Millisecond)
		rng := rand.New(rand.NewSource(seed))
		var sum time.Duration
		start := time.Now()
		for i := 0; i < n; i++ {
			sum += d.Sample(rng)
		}
		took := time.Since(start)
		if sum <= 0 {
			return 0, 0, errors.New("lognormal samples summed to zero")
		}
		return n, took, nil
	}},
	{"stats.sketch_add_ns", time.Nanosecond, "BenchmarkSketchAdd", func(seed int64) (int, time.Duration, error) {
		const n = 1_000_000
		s, values := warmSketch(seed)
		start := time.Now()
		for i := 0; i < n; i++ {
			s.Add(values[i&(len(values)-1)])
		}
		return n, time.Since(start), nil
	}},
	{"stats.sketch_merge_us", time.Microsecond, "BenchmarkSketchMerge", sketchMerges},
	{"econ.autoscaler_tick_ns", time.Nanosecond, "BenchmarkAutoscalerTick", func(int64) (int, time.Duration, error) {
		const n = 500_000
		a := econ.NewAutoscaler(econ.AutoscalerConfig{
			Target:          2,
			TickInterval:    2 * time.Second,
			ScaleDownWindow: time.Minute,
		})
		tick := int64(2 * time.Second)
		start := time.Now()
		for i := 0; i < n; i++ {
			now := int64(i) * tick
			a.Observe(now, i%17, 4)
			a.Tick(now+tick/2, i%5, 4)
		}
		return n, time.Since(start), nil
	}},
	{"azuretrace.synth_ms", time.Millisecond, "", func(seed int64) (int, time.Duration, error) {
		start := time.Now()
		records := azuretrace.Generate(costTenants, dist.NewStreams(seed).Stream("perfbench/population"))
		for _, r := range records {
			if _, err := azuretrace.Synthesize(r); err != nil {
				return 0, 0, err
			}
		}
		return 1, time.Since(start), nil
	}},
}

// holdEvents times the classic hold model through At and Run: depth
// pending timers, each of which, when it fires, schedules itself again a
// pseudo-random interval later, until n events have fired. Every event is a
// heap pop and a heap push at the given depth.
func holdEvents(depth, n int) (int, time.Duration, error) {
	e := des.NewEngine()
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	steps := make([]des.Time, 4096)
	for i := range steps {
		steps[i] = des.Time(1 + rng.Int63n(int64(time.Second)))
	}
	fired := 0
	var hold func()
	hold = func() {
		fired++
		if fired+depth <= n {
			e.At(e.Now()+steps[fired&(len(steps)-1)], hold)
		}
	}
	for i := 0; i < depth; i++ {
		e.At(steps[i&(len(steps)-1)], hold)
	}
	start := time.Now()
	e.Run(0)
	took := time.Since(start)
	if fired != n {
		return 0, 0, fmt.Errorf("fired %d of %d events", fired, n)
	}
	return n, took, nil
}

// newProbeCloud builds a simulated provider with fns deployed functions.
func newProbeCloud(seed int64, fns int) (*des.Engine, *cloud.Cloud, error) {
	cfg, err := providers.Get(provider)
	if err != nil {
		return nil, nil, err
	}
	eng := des.NewEngine()
	c, err := cloud.New(eng, cfg, dist.NewStreams(seed))
	if err != nil {
		eng.Close()
		return nil, nil, err
	}
	for i := 0; i < fns; i++ {
		spec := cloud.FunctionSpec{Name: fmt.Sprintf("f%d", i), Runtime: cloud.RuntimePython, Method: cloud.DeployZIP}
		if err := c.Deploy(spec); err != nil {
			eng.Close()
			return nil, nil, err
		}
	}
	return eng, c, nil
}

// warmInvokes chains warm callback-form invocations of one function, after
// an untimed cold start.
func warmInvokes(seed int64) (int, time.Duration, error) {
	const n = 200_000
	eng, c, err := newProbeCloud(seed, 1)
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	c.SetEngineMode(cloud.EngineCallback)
	req := &cloud.Request{Fn: "f0"}
	remaining := n
	var failure error
	var done func(*cloud.Response, error)
	done = func(_ *cloud.Response, err error) {
		if err != nil {
			failure = err
			return
		}
		remaining--
		if remaining > 0 {
			c.InvokeAsync(req, done)
		}
	}
	var coldErr error
	c.InvokeAsync(req, func(_ *cloud.Response, err error) { coldErr = err })
	eng.Run(0)
	if coldErr != nil {
		return 0, 0, coldErr
	}
	start := time.Now()
	c.InvokeAsync(req, done)
	eng.Run(0)
	return n, time.Since(start), failure
}

// coldInvokes invokes each of many freshly deployed functions once through
// the proc-form Invoke, so every call is a cold start.
func coldInvokes(seed int64) (int, time.Duration, error) {
	const n = 500
	eng, c, err := newProbeCloud(seed, n)
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	reqs := make([]cloud.Request, n)
	for i := range reqs {
		reqs[i].Fn = fmt.Sprintf("f%d", i)
	}
	var failure error
	eng.Spawn("probe", func(p *des.Proc) {
		for i := range reqs {
			resp, err := c.Invoke(p, &reqs[i])
			if err != nil {
				failure = err
				return
			}
			if !resp.Cold {
				failure = fmt.Errorf("invocation %d was not cold", i)
				return
			}
		}
	})
	start := time.Now()
	eng.Run(0)
	return n, time.Since(start), failure
}

// warmSketch returns a sketch holding 200k observations spread over ten
// seconds, and 8192 more such values to add, as BenchmarkSketchAdd does.
func warmSketch(seed int64) (*sketch.Sketch, []time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	s := sketch.New(0)
	for i := 0; i < 200_000; i++ {
		s.Add(time.Duration(rng.Int63n(int64(10 * time.Second))))
	}
	values := make([]time.Duration, 8192)
	for i := range values {
		values[i] = time.Duration(rng.Int63n(int64(10 * time.Second)))
	}
	return s, values
}

// sketchMerges merges a populated shard sketch into one accumulator, as a
// shard merge folds shard after shard.
func sketchMerges(seed int64) (int, time.Duration, error) {
	const n = 2000
	shard, _ := warmSketch(seed)
	acc := sketch.New(0)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := acc.Merge(shard); err != nil {
			return 0, 0, err
		}
	}
	return n, time.Since(start), nil
}

// runProbes runs every probe and returns its median cost per call in the
// probe's unit.
func runProbes(seed int64) (map[string]float64, error) {
	out := make(map[string]float64, len(probes))
	for _, p := range probes {
		per := make([]float64, 0, probeReps)
		for r := 0; r < probeReps; r++ {
			n, took, err := p.run(seed)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			per = append(per, float64(took)/float64(n)/float64(p.unit))
		}
		out[p.name] = median(per)
	}
	return out, nil
}
