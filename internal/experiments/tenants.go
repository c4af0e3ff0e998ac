package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/stats"
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

// population maps the options onto the cost replay's spec; RunTenants adds
// one KeepAlive-only policy per swept keep-alive.
func (o TenantsOptions) population() population {
	return population{name: "tenants", top: o.Top, CostOptions: CostOptions{
		Provider:       o.Provider,
		Tenants:        o.Tenants,
		Duration:       o.Duration,
		Shards:         o.Shards,
		Workers:        o.Workers,
		Seed:           o.Seed,
		MeanIATLo:      o.MeanIATLo,
		MeanIATHi:      o.MeanIATHi,
		Alpha:          o.Alpha,
		MaxConcurrency: o.MaxConcurrency,
		SlackTick:      o.SlackTick,
		Engine:         o.Engine,
	}}.normalized()
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

// RunTenants executes the keep-alive sweep over the synthesized population:
// the population replay with one fixed keep-alive per policy, projected
// onto the (cold rate, instance-seconds) frontier.
func RunTenants(opts TenantsOptions) (*TenantsResult, error) {
	p := opts.population()
	if err := p.validate(); err != nil {
		return nil, err
	}
	keepAlives := opts.KeepAlives
	if len(keepAlives) == 0 {
		keepAlives = []time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute, 20 * time.Minute}
	}
	for _, ka := range keepAlives {
		if ka <= 0 {
			return nil, fmt.Errorf("tenants: keep-alive %v must be positive", ka)
		}
		p.Policies = append(p.Policies, CostPolicy{KeepAlive: ka})
	}
	points, tenants, err := p.replay()
	if err != nil {
		return nil, err
	}

	res := &TenantsResult{
		Provider:  p.Provider,
		Tenants:   p.Tenants,
		Duration:  p.Duration,
		Shards:    p.Shards,
		Seed:      p.Seed,
		SlackTick: p.SlackTick,
		Points:    make([]TenantsPolicyPoint, len(points)),
	}
	for i, c := range points {
		res.Points[i] = TenantsPolicyPoint{
			KeepAlive:       keepAlives[i],
			Invocations:     c.Invocations,
			ColdServed:      c.ColdServed,
			WarmServed:      c.WarmServed,
			Errors:          c.Errors,
			Expirations:     c.Expirations,
			ColdRate:        c.ColdRate,
			InstanceSeconds: c.InstanceSeconds,
			Latency:         c.Latency,
			VirtualTime:     c.VirtualTime,
		}
		if p.top > 0 {
			// Worst tenants by p99 descending, name-tie-broken.
			top := tenants[i]
			sort.Slice(top, func(i, j int) bool {
				if top[i].P99 != top[j].P99 {
					return top[i].P99 > top[j].P99
				}
				return top[i].Name < top[j].Name
			})
			res.Points[i].TopTenants = top[:min(len(top), p.top)]
		}
	}
	front := markPareto(len(res.Points), func(i int) (float64, float64) {
		return res.Points[i].ColdRate, res.Points[i].InstanceSeconds
	})
	for i := range res.Points {
		res.Points[i].Pareto = front[i]
	}
	return res, nil
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
