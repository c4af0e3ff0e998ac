package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/stellar-repro/stellar/internal/azuretrace"
	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/econ"
	"github.com/stellar-repro/stellar/internal/providers"
	"github.com/stellar-repro/stellar/internal/stats/sketch"
	"github.com/stellar-repro/stellar/internal/workflow"
)

// population is the one tenant-population replay behind RunTenants and
// RunCost: a synthesized Azure-style function population, partitioned
// across shards by tenant index and replayed against one provider once per
// control-plane policy. The cost options are its spec; RunTenants is the
// keep-alive projection, mapping each keep-alive to a KeepAlive-only
// policy and reading the result as cold rate vs instance-seconds.
type population struct {
	CostOptions
	// name prefixes errors with the driver ("tenants", "cost").
	name string
	// top > 0 collects every tenant's TenantStat for the worst-N report.
	top int
}

// normalized applies the defaults both drivers share.
func (p population) normalized() population {
	if p.Shards <= 0 {
		p.Shards = 8
	}
	if p.MeanIATLo <= 0 {
		p.MeanIATLo = time.Second
	}
	if p.MeanIATHi <= 0 {
		p.MeanIATHi = time.Minute
	}
	if p.Alpha == 0 {
		p.Alpha = 0.02
	}
	if p.MaxConcurrency == 0 {
		p.MaxConcurrency = 16
	}
	if p.MaxConcurrency < 0 {
		p.MaxConcurrency = 0
	}
	return p
}

func (p population) validate() error {
	if p.Provider == "" {
		return fmt.Errorf("%s: provider is required", p.name)
	}
	if p.Tenants <= 0 {
		return fmt.Errorf("%s: need at least one tenant", p.name)
	}
	if p.Duration <= 0 {
		return fmt.Errorf("%s: duration must be positive", p.name)
	}
	if p.MeanIATLo > p.MeanIATHi {
		return fmt.Errorf("%s: mean IAT bounds inverted (%v > %v)", p.name, p.MeanIATLo, p.MeanIATHi)
	}
	if err := sketch.ValidateAlpha(p.Alpha); err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	if p.SlackTick < 0 {
		return fmt.Errorf("%s: negative slack tick", p.name)
	}
	return nil
}

// tenantSpec is one synthesized tenant: its execution-time record and its
// arrival rate. The population is built once per sweep, so every policy and
// every shard partition sees the same tenants.
type tenantSpec struct {
	rec     azuretrace.Record
	meanIAT time.Duration
}

// synthesize builds the population from the root seed only. A tenant's
// mean IAT is drawn log-uniformly from [iatLo, iatHi] and floored at its
// median execution time, so offered per-tenant concurrency stays near one.
func (p population) synthesize() []tenantSpec {
	rng := dist.NewStreams(p.Seed).Stream("tenants/population")
	records := azuretrace.Generate(p.Tenants, rng)
	pop := make([]tenantSpec, len(records))
	ratio := math.Log(float64(p.MeanIATHi) / float64(p.MeanIATLo))
	for i, rec := range records {
		iat := time.Duration(float64(p.MeanIATLo) * math.Exp(rng.Float64()*ratio))
		if med := rec.Median(); iat < med {
			iat = med
		}
		pop[i] = tenantSpec{rec: rec, meanIAT: iat}
	}
	return pop
}

// replay runs every (policy, shard) cell of the sweep and merges each
// policy's shards into one point. tenants[i] holds policy i's per-tenant
// stats, collected only when p.top > 0.
func (p population) replay() (points []CostPolicyPoint, tenants [][]TenantStat, err error) {
	pop := p.synthesize()
	grid, err := runGrid(p.Workers, p.Seed, len(p.Policies), p.Shards,
		func(cell, shard int, shardSeed int64) (*replayShard, error) {
			return p.runShard(pop, p.Policies[cell], shard, shardSeed)
		})
	if err != nil {
		return nil, nil, err
	}
	points = make([]CostPolicyPoint, len(p.Policies))
	tenants = make([][]TenantStat, len(p.Policies))
	for i, pol := range p.Policies {
		if points[i], tenants[i], err = p.merge(pol, grid[i]); err != nil {
			return nil, nil, err
		}
	}
	return points, tenants, nil
}

// replayShard is one (policy, shard) simulation's raw outcome: point holds
// the shard's counters, usage, latency sketch and virtual time.
type replayShard struct {
	point   CostPolicyPoint
	app     CostAppPoint
	appSk   *sketch.Sketch
	tenants []TenantStat
}

// merge folds one policy's shards, in shard order, into its point: counters
// and usage sum, sketches merge exactly, virtual time is the slowest
// shard's, and the cold rate is taken over served invocations.
func (p population) merge(pol CostPolicy, shards []*replayShard) (CostPolicyPoint, []TenantStat, error) {
	point := CostPolicyPoint{
		Policy:     pol.Name,
		Autoscaled: pol.Autoscaler != nil,
		sketch:     sketch.New(p.Alpha),
	}
	var app CostAppPoint
	appSk := sketch.New(p.Alpha)
	var tenants []TenantStat
	for _, sh := range shards {
		s := &sh.point
		point.Invocations += s.Invocations
		point.ColdServed += s.ColdServed
		point.WarmServed += s.WarmServed
		point.Errors += s.Errors
		point.Expirations += s.Expirations
		point.Suspends += s.Suspends
		point.Resumes += s.Resumes
		point.InstanceSeconds += s.InstanceSeconds
		point.Usage.Add(s.Usage)
		if s.sketch.Count() > 0 {
			if err := point.sketch.Merge(s.sketch); err != nil {
				return point, nil, fmt.Errorf("%s: merging shard sketch: %w", p.name, err)
			}
		}
		point.VirtualTime = max(point.VirtualTime, s.VirtualTime)
		// Tenants live in exactly one shard, so the concatenation holds
		// each exactly once.
		tenants = append(tenants, sh.tenants...)
		app.Launched += sh.app.Launched
		app.Completed += sh.app.Completed
		app.Failed += sh.app.Failed
		app.Usage.Add(sh.app.Usage)
		if sh.appSk != nil && sh.appSk.Count() > 0 {
			if err := appSk.Merge(sh.appSk); err != nil {
				return point, nil, fmt.Errorf("%s: merging app sketch: %w", p.name, err)
			}
		}
	}
	if served := point.ColdServed + point.WarmServed; served > 0 {
		point.ColdRate = float64(point.ColdServed) / float64(served)
	}
	if point.sketch.Count() > 0 {
		point.Latency = point.sketch.Summarize()
	}
	if p.Workflow != "" {
		app.Topology = p.Workflow
		if appSk.Count() > 0 {
			app.MakespanP50 = appSk.Quantile(0.50)
			app.MakespanP99 = appSk.Quantile(0.99)
		}
		point.App = &app
	}
	return point, tenants, nil
}

// runShard replays this shard's slice of the population under one
// control-plane policy, from the shard's seed alone.
func (p population) runShard(pop []tenantSpec, pol CostPolicy, shardIdx int, seed int64) (*replayShard, error) {
	cfg, err := providers.Get(p.Provider)
	if err != nil {
		return nil, err
	}
	if pol.Autoscaler != nil {
		as := *pol.Autoscaler
		cfg.Autoscaler = &as
		cfg.ResumeDelay = dist.Constant(p.ResumeDelay)
	} else {
		cfg.KeepAlive = cloud.KeepAlivePolicy{Fixed: pol.KeepAlive}
	}
	cfg.KeepAliveSlack = p.SlackTick

	fail := func(err error) (*replayShard, error) {
		return nil, fmt.Errorf("%s shard %d: %w", p.name, shardIdx, err)
	}
	out := &replayShard{point: CostPolicyPoint{sketch: sketch.New(p.Alpha)}}
	pt := &out.point
	e, err := newEnvWithConfig(cfg, seed)
	if err != nil {
		return fail(err)
	}
	defer e.close()
	c := e.cloud
	c.SetEngineMode(p.Engine)
	eng := e.eng

	// Tenant arrival/execution randomness derives from the shard seed under
	// per-tenant stream names, independent of the cloud's own streams.
	streams := dist.NewStreams(seed)
	noopDone := func(*cloud.Response, error) {}
	horizon := p.Duration

	type tenantRun struct {
		name   string
		sk     *sketch.Sketch
		issued uint64
	}
	var runs []*tenantRun
	for t := shardIdx; t < len(pop); t += p.Shards {
		spec := pop[t]
		name := spec.rec.Function
		if err := c.Deploy(cloud.FunctionSpec{
			Name:         name,
			Runtime:      cloud.RuntimePython,
			Method:       cloud.DeployZIP,
			MaxInstances: p.MaxConcurrency,
		}); err != nil {
			return fail(err)
		}
		execDist, err := azuretrace.Synthesize(spec.rec)
		if err != nil {
			return fail(err)
		}
		tr := &tenantRun{name: name, sk: sketch.New(p.Alpha)}
		if err := c.SetFunctionRecorder(name, tr.sk); err != nil {
			return fail(err)
		}
		runs = append(runs, tr)

		arrRNG := streams.PrefixedStream("tenants/arr/", name)
		execRNG := streams.PrefixedStream("tenants/exec/", name)
		mean := float64(spec.meanIAT)
		// Open-loop Poisson arrivals as a self-rescheduling callback chain:
		// the next arrival is independent of completions, and generation
		// stops once it would cross the window.
		var arrive func()
		arrive = func() {
			tr.issued++
			c.InvokeAsync(&cloud.Request{Fn: name, ExecTime: execDist.Sample(execRNG)}, noopDone)
			if next := time.Duration(arrRNG.ExpFloat64() * mean); eng.Now()+next < horizon {
				eng.CallAfter(next, arrive)
			}
		}
		if first := time.Duration(arrRNG.ExpFloat64() * mean); first < horizon {
			eng.CallAfter(first, arrive)
		}
	}

	// The optional workflow app shares the provider with the tenant
	// population: its nodes are ordinary functions under the same control
	// plane, so its bill reflects the policy's suspend/evict behavior.
	var dag *workflow.DAG
	if p.Workflow != "" {
		dag, err = workflow.Preset(p.Workflow, workflow.PresetSpec{
			Transfer:     workflow.TransferInline,
			PayloadBytes: 4 << 10,
		})
		if err != nil {
			return fail(err)
		}
		for _, node := range dag.Nodes {
			if err := c.Deploy(cloud.FunctionSpec{
				Name:     node.Name,
				Runtime:  cloud.RuntimePython,
				Method:   cloud.DeployZIP,
				ExecTime: p.AppExec,
			}); err != nil {
				return fail(err)
			}
		}
		ex, err := workflow.New(workflow.Config{Cloud: c, DAG: dag})
		if err != nil {
			return fail(err)
		}
		out.appSk = sketch.New(p.Alpha)
		n := shardInvocations(p.Apps, p.Shards, shardIdx)
		out.app.Launched = n
		if n > 0 {
			runOne := func(proc *des.Proc) {
				res, err := ex.Run(proc)
				if err != nil {
					out.app.Failed++
					return
				}
				out.app.Completed++
				out.appSk.Add(res.Makespan)
			}
			eng.Spawn("cost/app-arrivals", func(proc *des.Proc) {
				for i := uint64(0); i < n; i++ {
					eng.Spawn("cost/app", runOne)
					if i+1 < n {
						proc.Sleep(p.AppIAT)
					}
				}
			})
		}
	}

	// Drain to quiescence: in-flight work completes, idle instances expire
	// or suspend, and the autoscaler tick self-disarms, closing each
	// tenant's instance-seconds integral.
	eng.Run(0)
	pt.VirtualTime = eng.Now()

	var tenantSum econ.Usage
	for _, tr := range runs {
		tm, ok := c.FunctionMetrics(tr.name)
		if !ok {
			return fail(fmt.Errorf("%s vanished", tr.name))
		}
		if tm.Invocations != tr.issued {
			return fail(fmt.Errorf("%s conservation violated: issued=%d admitted=%d",
				tr.name, tr.issued, tm.Invocations))
		}
		pt.Invocations += tm.Invocations
		pt.ColdServed += tm.ColdServed
		pt.WarmServed += tm.WarmServed
		pt.Errors += tm.Errors
		pt.InstanceSeconds += tm.InstanceSeconds
		if tr.sk.Count() > 0 {
			if err := pt.sketch.Merge(tr.sk); err != nil {
				return fail(err)
			}
		}
		u, ok := c.FunctionUsage(tr.name)
		if !ok {
			return fail(fmt.Errorf("%s has no usage", tr.name))
		}
		tenantSum.Add(u)
		if p.top > 0 {
			stat := TenantStat{
				Name:        tr.name,
				Invocations: tm.Invocations,
				ColdServed:  tm.ColdServed,
				Errors:      tm.Errors,
			}
			if tr.sk.Count() > 0 {
				stat.P99 = tr.sk.Quantile(0.99)
			}
			out.tenants = append(out.tenants, stat)
		}
	}
	if dag != nil {
		for _, node := range dag.Nodes {
			u, ok := c.FunctionUsage(node.Name)
			if !ok {
				return fail(fmt.Errorf("app node %s has no usage", node.Name))
			}
			out.app.Usage.Add(u)
		}
		tenantSum.Add(out.app.Usage)
	}
	pt.Usage = c.Usage()
	// Billing conservation, live in the experiment: per-tenant usage must
	// sum to the fleet meter (identical adds land in both), up to float
	// association noise.
	if err := usageConserved(tenantSum, pt.Usage); err != nil {
		return fail(err)
	}
	m := c.Metrics()
	pt.Expirations, pt.Suspends, pt.Resumes = m.Expirations, m.Suspends, m.Resumes
	return out, nil
}

// usageConserved checks that per-tenant usage sums to the fleet total.
func usageConserved(sum, fleet econ.Usage) error {
	if sum.Requests != fleet.Requests {
		return fmt.Errorf("request conservation violated: tenants=%d fleet=%d", sum.Requests, fleet.Requests)
	}
	close := func(a, b float64) bool {
		diff := math.Abs(a - b)
		return diff <= 1e-6*math.Max(math.Abs(a), math.Abs(b))+1e-12
	}
	if !close(sum.BusyGBms, fleet.BusyGBms) ||
		!close(sum.IdleGBms, fleet.IdleGBms) ||
		!close(sum.SuspendedGBms, fleet.SuspendedGBms) {
		return fmt.Errorf("usage conservation violated: tenants=%+v fleet=%+v", sum, fleet)
	}
	return nil
}

// markPareto reports which of n points are not dominated when minimizing
// both coordinates: no other point is at least as good on both and
// strictly better on one.
func markPareto(n int, coord func(i int) (x, y float64)) []bool {
	front := make([]bool, n)
	for i := range front {
		xi, yi := coord(i)
		front[i] = true
		for j := 0; j < n; j++ {
			if xj, yj := coord(j); j != i && xj <= xi && yj <= yi && (xj < xi || yj < yi) {
				front[i] = false
				break
			}
		}
	}
	return front
}
