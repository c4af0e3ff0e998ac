package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/core"
	"github.com/stellar-repro/stellar/internal/experiments"
	"github.com/stellar-repro/stellar/internal/httpfaas"
	"github.com/stellar-repro/stellar/internal/providers"
	"github.com/stellar-repro/stellar/internal/stats/sketch"
	"github.com/stellar-repro/stellar/internal/stress"
	"github.com/stellar-repro/stellar/internal/workflow"
)

// workload is one canonical benchmark input.
type workload struct {
	name string
	// params returns the resolved parameters of one timed call, for the
	// manifest.
	params func(seed int64) any
	// setup prepares a session: resolves the configuration, starts any
	// server, and makes one untimed warm-up call.
	setup func(seed int64) (session, error)
}

// session is a set-up workload.
type session interface {
	// call makes one timed call with the given number of shard or client
	// workers. The returned function summarizes its result; it runs after
	// the timing stops.
	call(workers int) (func() *outcome, error)
	close()
}

// outcome is what one timed call did, read from the public result.
type outcome struct {
	ops, failed uint64 // operations attempted, and those that failed
	// simP50/simP99 are simulated client latencies (virtual time).
	simP50, simP99 time.Duration
	// virtual is the simulated time the call covered.
	virtual time.Duration
	// digest fingerprints the simulated results; equal seeds must give
	// equal digests.
	digest string
	// counts are per-layer counts keyed by metric name.
	counts map[string]float64
	// err is a failed conservation check.
	err error
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

// simSession is a workload whose timed call is one run of a simulated
// experiment at a fixed size.
type simSession struct {
	seed int64
	size uint64
	run  func(seed int64, size uint64, workers int) (func() *outcome, error)
}

func (s *simSession) call(workers int) (func() *outcome, error) {
	return s.run(s.seed, s.size, workers)
}

func (s *simSession) close() {}

// simWorkload registers a simulated workload: the timed call runs at size,
// the set-up warm-up at warmSize.
func simWorkload(name string, size, warmSize uint64, params func(seed int64, size uint64) any,
	run func(seed int64, size uint64, workers int) (func() *outcome, error)) {
	register(&workload{
		name:   name,
		params: func(seed int64) any { return params(seed, size) },
		setup: func(seed int64) (session, error) {
			if _, err := providers.Get(provider); err != nil {
				return nil, err
			}
			summary, err := run(seed, warmSize, benchWorkers)
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if out := summary(); out.err != nil {
				return nil, fmt.Errorf("warm-up: %w", out.err)
			}
			return &simSession{seed: seed, size: size, run: run}, nil
		},
	})
}

// provider is the simulated provider profile of every workload.
const provider = "aws"

// Workload sizes. A timed call takes one to two seconds on a two-CPU
// machine, so a run makes ten or more calls. The replay population is large
// enough that its latency quantiles vary by only a few percent from seed to
// seed.
const (
	scaleInvocations = 2_000_000
	costTenants      = 10_000
	costDuration     = 3 * time.Minute
	workflowRuns     = 20_000
	stressRate       = 1000 // requests per second
	stressRequests   = 2000 // per timed call
	stressWarmup     = 200
	stressTimeScale  = 1000 // the stress CLI's default time compression
	warmupDivisor    = 10   // set-up warm-up size = timed size / warmupDivisor
)

func init() {
	simWorkload("warm-scale", scaleInvocations, scaleInvocations/warmupDivisor, func(seed int64, n uint64) any {
		return scaleOptions(seed, n, benchWorkers)
	}, runScale)
	simWorkload("population-replay", costTenants, costTenants/warmupDivisor, func(seed int64, n uint64) any {
		return costOptions(seed, n, benchWorkers)
	}, runCost)
	simWorkload("workflow-fanout", workflowRuns, workflowRuns/warmupDivisor, func(seed int64, n uint64) any {
		return workflowOptions(seed, n, benchWorkers)
	}, runWorkflow)
	register(&workload{name: "stress-loopback", params: stressParams, setup: setupStress})
}

func scaleOptions(seed int64, n uint64, workers int) experiments.ScaleOptions {
	return experiments.ScaleOptions{
		Provider:    provider,
		Invocations: n,
		Shards:      8,
		Workers:     workers,
		Seed:        seed,
		Burst:       1,
		Engine:      cloud.EngineCallback,
	}
}

func runScale(seed int64, n uint64, workers int) (func() *outcome, error) {
	res, err := experiments.RunScale(scaleOptions(seed, n, workers))
	if err != nil {
		return nil, err
	}
	return func() *outcome {
		var d digest
		d.add(res.Invocations, res.Colds, res.Errors, res.VirtualTime)
		d.sketch(res.Sketch)
		return &outcome{
			ops:     res.Invocations,
			failed:  res.Errors,
			simP50:  quantile(res.Sketch, 0.50),
			simP99:  quantile(res.Sketch, 0.99),
			virtual: res.VirtualTime,
			digest:  d.sum(),
			counts: map[string]float64{
				"cloud.cold_pct": pct(res.Colds, res.Invocations),
			},
			err: checkScale(res),
		}
	}, nil
}

// costPolicies are the two population-replay cells: the legacy keep-alive
// loop and the autoscaler with suspend/resume.
var costPolicies = []string{"keepalive-5m", "target-2"}

func costOptions(seed int64, tenants uint64, workers int) experiments.CostOptions {
	opts := experiments.CostOptions{
		Provider: provider,
		Tenants:  int(tenants),
		Duration: costDuration,
		Shards:   8,
		Workers:  workers,
		Seed:     seed,
	}
	for _, name := range costPolicies {
		p, err := experiments.ParseCostPolicy(name)
		if err != nil {
			panic(err) // the names above parse by construction
		}
		opts.Policies = append(opts.Policies, p)
	}
	return opts
}

func runCost(seed int64, tenants uint64, workers int) (func() *outcome, error) {
	res, err := experiments.RunCost(costOptions(seed, tenants, workers))
	if err != nil {
		return nil, err
	}
	return func() *outcome {
		out := &outcome{err: checkCost(res)}
		var d digest
		d.json(res)
		merged := sketch.New(res.Points[0].LatencySketch().Alpha())
		var cold, served, expirations, suspends, resumes uint64
		for i := range res.Points {
			p := &res.Points[i]
			d.sketch(p.LatencySketch())
			if err := merged.Merge(p.LatencySketch()); err != nil && out.err == nil {
				out.err = err
			}
			out.ops += p.Invocations
			out.failed += p.Errors
			cold += p.ColdServed
			served += p.ColdServed + p.WarmServed
			expirations += p.Expirations
			suspends += p.Suspends
			resumes += p.Resumes
			if p.VirtualTime > out.virtual {
				out.virtual = p.VirtualTime
			}
		}
		out.simP50 = quantile(merged, 0.50)
		out.simP99 = quantile(merged, 0.99)
		out.digest = d.sum()
		out.counts = map[string]float64{
			"cloud.cold_pct":    pct(cold, served),
			"cloud.expirations": float64(expirations),
			"econ.suspends":     float64(suspends),
			"econ.resumes":      float64(resumes),
		}
		return out
	}, nil
}

func workflowOptions(seed int64, n uint64, workers int) experiments.WorkflowOptions {
	return experiments.WorkflowOptions{
		Provider:     provider,
		Topology:     "fanout-8",
		Workflows:    n,
		Shards:       16,
		Workers:      workers,
		Seed:         seed,
		IAT:          20 * time.Millisecond,
		Mode:         workflow.ModeSync,
		Transfer:     workflow.TransferInline,
		PayloadBytes: 64 << 10,
		ExecTime:     5 * time.Millisecond,
		Sample:       0.05,
	}
}

func runWorkflow(seed int64, n uint64, workers int) (func() *outcome, error) {
	res, err := experiments.RunWorkflow(workflowOptions(seed, n, workers))
	if err != nil {
		return nil, err
	}
	return func() *outcome {
		var d digest
		d.add(res.Completed, res.Failed, res.NodeFailures, res.Colds, res.Dropped, res.VirtualTime)
		d.add(res.Makespans.Values(), res.ClientLats.Values())
		for _, sk := range res.EdgeSketches {
			d.sketch(sk)
		}
		d.json(res.Barriers)
		d.json(res.Paths)
		d.json(res.CloudMetrics)
		d.json(res.Traces)
		var expirations, suspends, resumes, barriers uint64
		for _, m := range res.CloudMetrics {
			expirations += m.Expirations
			suspends += m.Suspends
			resumes += m.Resumes
		}
		for _, b := range res.Barriers {
			barriers += b.Completed
		}
		// One operation is one function invocation: every node of every
		// launched workflow.
		ops := res.Workflows * uint64(len(res.DAG.Nodes))
		return &outcome{
			ops:     ops,
			failed:  res.NodeFailures,
			simP50:  res.Makespans.Quantile(0.50),
			simP99:  res.Makespans.Quantile(0.99),
			virtual: res.VirtualTime,
			digest:  d.sum(),
			counts: map[string]float64{
				"cloud.cold_pct":              pct(res.Colds, ops),
				"cloud.expirations":           float64(expirations),
				"econ.suspends":               float64(suspends),
				"econ.resumes":                float64(resumes),
				"workflow.barriers_completed": float64(barriers),
				"trace.retained":              float64(len(res.Traces)),
				"trace.dropped":               float64(res.Dropped),
			},
			err: checkWorkflow(res),
		}
	}, nil
}

// stressSession is a running in-process httpfaas server with one deployed
// function, driven by the open-loop stress client.
type stressSession struct {
	srv     *httpfaas.Server
	url     string
	seed    int64
	planned uint64
}

func stressOptions(url string, seed int64, requests uint64, workers int) stress.Options {
	return stress.Options{
		URL:         url,
		Arrival:     stress.ArrivalPoisson,
		Rate:        stressRate,
		Workers:     workers,
		Client:      stress.ClientRaw,
		Seed:        seed,
		MaxRequests: requests,
	}
}

func stressParams(seed int64) any {
	return struct {
		Provider  string
		TimeScale float64
		Stress    stress.Options
	}{provider, stressTimeScale, stressOptions("http://127.0.0.1:<port>/fn/stress", seed, stressRequests, benchWorkers)}
}

func setupStress(seed int64) (session, error) {
	cfg, err := providers.Get(provider)
	if err != nil {
		return nil, err
	}
	srv, err := httpfaas.NewServer(cfg, seed, stressTimeScale)
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	s := &stressSession{srv: srv, seed: seed}
	eps, err := srv.Deploy(core.FunctionConfig{Name: "stress", Runtime: "go1.x", Method: "zip"})
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = eps[0].URL
	if s.planned, err = stress.PlannedArrivals(stressOptions(s.url, seed, stressRequests, benchWorkers)); err != nil {
		s.close()
		return nil, err
	}
	if _, err := stress.Run(stressOptions(s.url, seed, stressWarmup, benchWorkers)); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *stressSession) close() { s.srv.Stop() }

// stallThreshold is the host service time above which a reply counts as a
// stall.
const stallThreshold = 100 * time.Millisecond

func (s *stressSession) call(workers int) (func() *outcome, error) {
	m0 := s.srv.Metrics()
	res, err := stress.Run(stressOptions(s.url, s.seed, stressRequests, workers))
	if err != nil {
		return nil, err
	}
	m1 := s.srv.Metrics()
	return func() *outcome {
		out := &outcome{
			ops:     res.Requests,
			failed:  res.Errors,
			simP50:  quantile(res.SimVirtual, 0.50),
			simP99:  quantile(res.SimVirtual, 0.99),
			virtual: time.Duration(float64(res.Elapsed) * s.srv.TimeScale()),
			// A real-time simulation does not replay exactly; only the
			// arrival schedule is fixed by the seed.
			digest: fmt.Sprintf("planned=%d", s.planned),
			counts: map[string]float64{
				"cloud.cold_pct":         pct(m1.ColdServed-m0.ColdServed, m1.ColdServed+m1.WarmServed-m0.ColdServed-m0.WarmServed),
				"cloud.expirations":      float64(m1.Expirations - m0.Expirations),
				"stress.dials":           float64(res.Dials),
				"stress.send_lag_p99_ms": millis(res.SendLag.Quantile(0.99)),
				"stress.intended_p99_ms": millis(res.Intended.Quantile(0.99)),
				"stress.stall_count":     float64(countAbove(res.Service, stallThreshold)),
				"stress.http_p50_us":     micros(res.Service.Quantile(0.50)),
			},
		}
		if res.Requests != s.planned {
			out.err = fmt.Errorf("stress: %d replies, %d planned arrivals", res.Requests, s.planned)
		}
		return out
	}, nil
}

// quantile interpolates the q-th quantile linearly between the sketch's
// bucket representatives. Sketch.Quantile returns the representative
// itself, which stays on one bucket across seeds once a series is long;
// the interpolated value still moves with the underlying fractions.
func quantile(s *sketch.Sketch, q float64) time.Duration {
	cdf := s.CDF()
	for i, p := range cdf {
		if p.Frac < q {
			continue
		}
		if i == 0 {
			return p.Value
		}
		prev := cdf[i-1]
		w := (q - prev.Frac) / (p.Frac - prev.Frac)
		return prev.Value + time.Duration(w*float64(p.Value-prev.Value))
	}
	return s.Max()
}

// countAbove counts a sketch's observations above v.
func countAbove(s *sketch.Sketch, v time.Duration) uint64 {
	below := 0.0
	for _, p := range s.CDF() {
		if p.Value > v {
			break
		}
		below = p.Frac
	}
	return s.Count() - uint64(below*float64(s.Count())+0.5)
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// digest fingerprints simulated results.
type digest struct{ buf []byte }

func (d *digest) add(vs ...any) {
	for _, v := range vs {
		d.buf = fmt.Appendf(d.buf, "%v;", v)
	}
}

func (d *digest) json(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(err.Error())
	}
	d.buf = append(d.buf, b...)
}

func (d *digest) sketch(s *sketch.Sketch) { d.json(s.Record()) }

func (d *digest) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:8])
}
