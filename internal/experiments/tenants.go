package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"github.com/stellar-repro/stellar/internal/azuretrace"
	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/providers"
	"github.com/stellar-repro/stellar/internal/runner"
	"github.com/stellar-repro/stellar/internal/stats"
	"github.com/stellar-repro/stellar/internal/stats/sketch"
)

// TenantsOptions configures a provider-scale multi-tenant trace replay: a
// synthesized Azure-style function population replays concurrently against
// one simulated provider, once per keep-alive policy, producing the
// cold-start-rate vs instance-seconds trade-off frontier a provider's
// keep-alive knob walks (Shahrad et al., ATC'20; §VI-D of the paper for the
// cold-start mechanics).
//
// Tenants are deterministically partitioned across Shards by index; each
// (policy, shard) cell is one isolated simulation whose seed depends only on
// (Seed, shard index), so every policy replays the same arrivals and
// execution times, and results are byte-identical at any Workers setting.
type TenantsOptions struct {
	// Provider is the provider profile under test.
	Provider string
	// Tenants is the synthesized population size.
	Tenants int
	// Duration is the arrival window per shard; invocations still in
	// flight at the window's end run to completion.
	Duration time.Duration
	// Shards splits the population into independent simulations (default 8).
	Shards int
	// Workers bounds concurrently running shard simulations (0 = GOMAXPROCS).
	Workers int
	// Seed roots the population synthesis and every shard's randomness.
	Seed int64
	// KeepAlives is the swept fixed keep-alive axis (default 1m,5m,10m,20m).
	KeepAlives []time.Duration
	// SlackTick routes keep-alive expiries onto the engine's timer wheel at
	// this tick (0 = exact heap timers).
	SlackTick time.Duration
	// MeanIATLo/Hi bound each tenant's mean inter-arrival time, drawn
	// log-uniformly (default 1s..60s). A tenant's mean IAT is floored at
	// its median execution time so offered per-tenant concurrency stays
	// near one, as in the Azure trace's rare-invocation mass.
	MeanIATLo time.Duration
	MeanIATHi time.Duration
	// Alpha is the per-tenant latency sketch accuracy (default 0.02 —
	// coarser than the scale driver's, keeping each tenant's recorder in
	// the single-digit-KB range).
	Alpha float64
	// MaxConcurrency caps each tenant's live+pending instances (default 16,
	// negative = uncapped).
	MaxConcurrency int
	// Top reports the N worst tenants by p99 per policy (0 = none).
	Top int
	// Engine selects the invocation execution form.
	Engine cloud.EngineMode
}

func (o TenantsOptions) normalized() TenantsOptions {
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if len(o.KeepAlives) == 0 {
		o.KeepAlives = []time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute, 20 * time.Minute}
	}
	if o.MeanIATLo <= 0 {
		o.MeanIATLo = time.Second
	}
	if o.MeanIATHi <= 0 {
		o.MeanIATHi = time.Minute
	}
	if o.Alpha == 0 {
		o.Alpha = 0.02
	}
	if o.MaxConcurrency == 0 {
		o.MaxConcurrency = 16
	}
	if o.MaxConcurrency < 0 {
		o.MaxConcurrency = 0
	}
	return o
}

func (o TenantsOptions) validate() error {
	if o.Provider == "" {
		return fmt.Errorf("tenants: provider is required")
	}
	if o.Tenants <= 0 {
		return fmt.Errorf("tenants: need at least one tenant")
	}
	if o.Duration <= 0 {
		return fmt.Errorf("tenants: duration must be positive")
	}
	for _, ka := range o.KeepAlives {
		if ka <= 0 {
			return fmt.Errorf("tenants: keep-alive %v must be positive", ka)
		}
	}
	if o.MeanIATLo > o.MeanIATHi {
		return fmt.Errorf("tenants: mean IAT bounds inverted (%v > %v)", o.MeanIATLo, o.MeanIATHi)
	}
	if o.SlackTick < 0 {
		return fmt.Errorf("tenants: negative slack tick")
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

// synthesizeTenants builds the population from the root seed only.
func synthesizeTenants(opts TenantsOptions) []tenantSpec {
	rng := dist.NewStreams(opts.Seed).Stream("tenants/population")
	records := azuretrace.Generate(opts.Tenants, rng)
	pop := make([]tenantSpec, len(records))
	ratio := math.Log(float64(opts.MeanIATHi) / float64(opts.MeanIATLo))
	for i, rec := range records {
		iat := time.Duration(float64(opts.MeanIATLo) * math.Exp(rng.Float64()*ratio))
		if med := rec.Median(); iat < med {
			iat = med
		}
		pop[i] = tenantSpec{rec: rec, meanIAT: iat}
	}
	return pop
}

// TenantStat is one tenant's merged outcome under one policy.
type TenantStat struct {
	Name        string        `json:"name"`
	Invocations uint64        `json:"invocations"`
	ColdServed  uint64        `json:"cold_served"`
	Errors      uint64        `json:"errors"`
	P99         time.Duration `json:"p99_ns"`
}

// TenantsPolicyPoint is one keep-alive policy's merged outcome: the two
// frontier coordinates (cold-start rate, instance-seconds) plus the
// supporting counters and the merged latency sketch summary.
type TenantsPolicyPoint struct {
	KeepAlive       time.Duration `json:"keepalive_ns"`
	Invocations     uint64        `json:"invocations"`
	ColdServed      uint64        `json:"cold_served"`
	WarmServed      uint64        `json:"warm_served"`
	Errors          uint64        `json:"errors"`
	Expirations     uint64        `json:"expirations"`
	ColdRate        float64       `json:"cold_rate"`
	InstanceSeconds float64       `json:"instance_seconds"`
	Latency         stats.Summary `json:"latency"`
	VirtualTime     time.Duration `json:"virtual_ns"`
	// Pareto marks points not dominated on (ColdRate, InstanceSeconds):
	// the keep-alive settings a rational provider would actually pick.
	Pareto bool `json:"pareto"`
	// TopTenants lists the worst tenants by p99 (only when Options.Top > 0).
	TopTenants []TenantStat `json:"top_tenants,omitempty"`
}

// TenantsResult is the full sweep outcome, points in keep-alive order.
type TenantsResult struct {
	Provider  string               `json:"provider"`
	Tenants   int                  `json:"tenants"`
	Duration  time.Duration        `json:"duration_ns"`
	Shards    int                  `json:"shards"`
	Seed      int64                `json:"seed"`
	SlackTick time.Duration        `json:"slack_tick_ns"`
	Points    []TenantsPolicyPoint `json:"points"`
}

// tenantsShard is one (policy, shard) simulation's raw outcome.
type tenantsShard struct {
	inv, cold, warm, errs uint64
	expirations           uint64
	instSec               float64
	sk                    *sketch.Sketch
	virtual               time.Duration
	tenants               []TenantStat
}

// RunTenants executes the keep-alive sweep over the synthesized population.
func RunTenants(opts TenantsOptions) (*TenantsResult, error) {
	opts = opts.normalized()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	pop := synthesizeTenants(opts)

	units := len(opts.KeepAlives) * opts.Shards
	shards, err := runner.Map(runner.Pool{Workers: opts.Workers, Seed: opts.Seed}, units,
		func(sh runner.Shard) (*tenantsShard, error) {
			ka := opts.KeepAlives[sh.Index/opts.Shards]
			shardIdx := sh.Index % opts.Shards
			return runTenantsShard(opts, pop, ka, shardIdx)
		})
	if err != nil {
		return nil, err
	}

	res := &TenantsResult{
		Provider:  opts.Provider,
		Tenants:   opts.Tenants,
		Duration:  opts.Duration,
		Shards:    opts.Shards,
		Seed:      opts.Seed,
		SlackTick: opts.SlackTick,
	}
	for ki, ka := range opts.KeepAlives {
		point := TenantsPolicyPoint{KeepAlive: ka}
		merged := sketch.New(opts.Alpha)
		var tenants []TenantStat
		for _, sh := range shards[ki*opts.Shards : (ki+1)*opts.Shards] {
			point.Invocations += sh.inv
			point.ColdServed += sh.cold
			point.WarmServed += sh.warm
			point.Errors += sh.errs
			point.Expirations += sh.expirations
			point.InstanceSeconds += sh.instSec
			if sh.sk.Count() > 0 {
				if err := merged.Merge(sh.sk); err != nil {
					return nil, fmt.Errorf("tenants: merging shard sketch: %w", err)
				}
			}
			if sh.virtual > point.VirtualTime {
				point.VirtualTime = sh.virtual
			}
			tenants = append(tenants, sh.tenants...)
		}
		if served := point.ColdServed + point.WarmServed; served > 0 {
			point.ColdRate = float64(point.ColdServed) / float64(served)
		}
		if merged.Count() > 0 {
			point.Latency = merged.Summarize()
		}
		if opts.Top > 0 {
			// Tenants live in exactly one shard, so the concatenation holds
			// each exactly once; sort by p99 descending, name-tie-broken.
			sort.Slice(tenants, func(i, j int) bool {
				if tenants[i].P99 != tenants[j].P99 {
					return tenants[i].P99 > tenants[j].P99
				}
				return tenants[i].Name < tenants[j].Name
			})
			if len(tenants) > opts.Top {
				tenants = tenants[:opts.Top]
			}
			point.TopTenants = tenants
		}
		res.Points = append(res.Points, point)
	}
	markPareto(res.Points)
	return res, nil
}

// markPareto flags points not dominated on minimizing both coordinates.
func markPareto(points []TenantsPolicyPoint) {
	for i := range points {
		dominated := false
		for j := range points {
			if j == i {
				continue
			}
			if points[j].ColdRate <= points[i].ColdRate &&
				points[j].InstanceSeconds <= points[i].InstanceSeconds &&
				(points[j].ColdRate < points[i].ColdRate ||
					points[j].InstanceSeconds < points[i].InstanceSeconds) {
				dominated = true
				break
			}
		}
		points[i].Pareto = !dominated
	}
}

// runTenantsShard replays this shard's slice of the population under one
// keep-alive policy. The shard seed ignores the policy index on purpose:
// every policy sees identical arrivals and execution draws, isolating the
// keep-alive knob as the only difference between frontier points.
func runTenantsShard(opts TenantsOptions, pop []tenantSpec, ka time.Duration, shardIdx int) (*tenantsShard, error) {
	cfg, err := providers.Get(opts.Provider)
	if err != nil {
		return nil, err
	}
	cfg.KeepAlive = cloud.KeepAlivePolicy{Fixed: ka}
	cfg.KeepAliveSlack = opts.SlackTick

	out := &tenantsShard{sk: sketch.New(opts.Alpha)}
	e, err := newEnvWithConfig(cfg, dist.ShardSeed(opts.Seed, shardIdx))
	if err != nil {
		return nil, fmt.Errorf("tenants shard %d: %w", shardIdx, err)
	}
	defer e.close()
	c := e.cloud
	c.SetEngineMode(opts.Engine)
	eng := e.eng

	// Tenant arrival/execution randomness derives from the shard seed under
	// per-tenant stream names, independent of the cloud's own streams.
	streams := dist.NewStreams(dist.ShardSeed(opts.Seed, shardIdx))
	noopDone := func(*cloud.Response, error) {}
	horizon := opts.Duration

	type tenantRun struct {
		name   string
		sk     *sketch.Sketch
		issued uint64
	}
	var runs []*tenantRun
	for t := shardIdx; t < len(pop); t += opts.Shards {
		spec := pop[t]
		name := spec.rec.Function
		if err := c.Deploy(cloud.FunctionSpec{
			Name:         name,
			Runtime:      cloud.RuntimePython,
			Method:       cloud.DeployZIP,
			MaxInstances: opts.MaxConcurrency,
		}); err != nil {
			return nil, fmt.Errorf("tenants shard %d: %w", shardIdx, err)
		}
		execDist, err := azuretrace.Synthesize(spec.rec)
		if err != nil {
			return nil, fmt.Errorf("tenants shard %d: %w", shardIdx, err)
		}
		tr := &tenantRun{name: name, sk: sketch.New(opts.Alpha)}
		if err := c.SetFunctionRecorder(name, tr.sk); err != nil {
			return nil, fmt.Errorf("tenants shard %d: %w", shardIdx, err)
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

	// Drain to quiescence: in-flight invocations complete and idle
	// instances expire, closing each tenant's instance-seconds integral.
	eng.Run(0)
	out.virtual = eng.Now()

	for _, tr := range runs {
		tm, ok := c.FunctionMetrics(tr.name)
		if !ok {
			return nil, fmt.Errorf("tenants shard %d: %s vanished", shardIdx, tr.name)
		}
		if tm.Invocations != tr.issued {
			return nil, fmt.Errorf("tenants shard %d: %s conservation violated: issued=%d admitted=%d",
				shardIdx, tr.name, tr.issued, tm.Invocations)
		}
		out.inv += tm.Invocations
		out.cold += tm.ColdServed
		out.warm += tm.WarmServed
		out.errs += tm.Errors
		out.instSec += tm.InstanceSeconds
		if tr.sk.Count() > 0 {
			if err := out.sk.Merge(tr.sk); err != nil {
				return nil, fmt.Errorf("tenants shard %d: %w", shardIdx, err)
			}
		}
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
	out.expirations = c.Metrics().Expirations
	return out, nil
}

// WriteTenantsReport renders the frontier as a table.
func WriteTenantsReport(w io.Writer, res *TenantsResult) {
	fmt.Fprintf(w, "tenants sweep: provider=%s tenants=%d duration=%v shards=%d seed=%d slack=%v\n",
		res.Provider, res.Tenants, res.Duration, res.Shards, res.Seed, res.SlackTick)
	fmt.Fprintf(w, "%-10s %12s %9s %8s %8s %8s %14s %10s %10s %7s\n",
		"keepalive", "invocations", "colds", "cold%", "errors", "expired", "inst-seconds", "p50", "p99", "pareto")
	for _, p := range res.Points {
		pareto := ""
		if p.Pareto {
			pareto = "*"
		}
		fmt.Fprintf(w, "%-10v %12d %9d %7.3f%% %8d %8d %14.1f %10v %10v %7s\n",
			p.KeepAlive, p.Invocations, p.ColdServed, p.ColdRate*100, p.Errors, p.Expirations,
			p.InstanceSeconds, p.Latency.Median.Round(time.Millisecond),
			p.Latency.P99.Round(time.Millisecond), pareto)
	}
	for _, p := range res.Points {
		if len(p.TopTenants) == 0 {
			continue
		}
		fmt.Fprintf(w, "\nworst tenants by p99 at keepalive=%v:\n", p.KeepAlive)
		fmt.Fprintf(w, "  %-12s %12s %9s %8s %10s\n", "tenant", "invocations", "colds", "errors", "p99")
		for _, t := range p.TopTenants {
			fmt.Fprintf(w, "  %-12s %12d %9d %8d %10v\n",
				t.Name, t.Invocations, t.ColdServed, t.Errors, t.P99.Round(time.Millisecond))
		}
	}
}

// WriteTenantsJSON writes the sweep as indented JSON.
func WriteTenantsJSON(w io.Writer, res *TenantsResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// WriteTenantsCSV writes one row per frontier point.
func WriteTenantsCSV(w io.Writer, res *TenantsResult) error {
	if _, err := fmt.Fprintln(w, "keepalive_s,invocations,cold_served,warm_served,errors,expirations,cold_rate,instance_seconds,median_ms,p99_ms,pareto"); err != nil {
		return err
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, p := range res.Points {
		pareto := 0
		if p.Pareto {
			pareto = 1
		}
		if _, err := fmt.Fprintf(w, "%g,%d,%d,%d,%d,%d,%.6f,%.3f,%.3f,%.3f,%d\n",
			p.KeepAlive.Seconds(), p.Invocations, p.ColdServed, p.WarmServed, p.Errors,
			p.Expirations, p.ColdRate, p.InstanceSeconds,
			ms(p.Latency.Median), ms(p.Latency.P99), pareto); err != nil {
			return err
		}
	}
	return nil
}
