package experiments

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/econ"
	"github.com/stellar-repro/stellar/internal/stats"
	"github.com/stellar-repro/stellar/internal/stats/sketch"
	"github.com/stellar-repro/stellar/internal/workflow"
)

// CostPolicy is one control-plane configuration swept by the cost
// experiment: either a legacy fixed keep-alive (Autoscaler nil) or a
// target-concurrency autoscaler, optionally with suspend/resume.
type CostPolicy struct {
	// Name labels the policy in reports ("keepalive-5m", "target-1").
	Name string `json:"name"`
	// KeepAlive is the fixed keep-alive used when Autoscaler is nil.
	KeepAlive time.Duration `json:"keepalive_ns,omitempty"`
	// Autoscaler, when non-nil, replaces keep-alive expiry with the
	// target-concurrency control loop.
	Autoscaler *econ.AutoscalerConfig `json:"autoscaler,omitempty"`
}

// ParseCostPolicy builds a policy from its report name, so CLI sweeps can
// name points directly:
//
//	keepalive-<dur>    fixed keep-alive, e.g. keepalive-5m
//	target-<n>         autoscaler at per-instance concurrency n, suspending
//	                   surplus instances on scale-down
//	target-<n>-evict   same, but surplus instances are evicted outright
func ParseCostPolicy(name string) (CostPolicy, error) {
	switch {
	case strings.HasPrefix(name, "keepalive-"):
		ka, err := time.ParseDuration(strings.TrimPrefix(name, "keepalive-"))
		if err != nil || ka <= 0 {
			return CostPolicy{}, fmt.Errorf("cost: bad keep-alive policy %q", name)
		}
		return CostPolicy{Name: name, KeepAlive: ka}, nil
	case strings.HasPrefix(name, "target-"):
		spec := strings.TrimPrefix(name, "target-")
		suspend := true
		if s, ok := strings.CutSuffix(spec, "-evict"); ok {
			spec, suspend = s, false
		}
		target, err := strconv.ParseFloat(spec, 64)
		if err != nil || target <= 0 || math.IsInf(target, 0) {
			return CostPolicy{}, fmt.Errorf("cost: bad target policy %q", name)
		}
		return CostPolicy{Name: name, Autoscaler: &econ.AutoscalerConfig{
			Target:          target,
			TickInterval:    2 * time.Second,
			ScaleDownWindow: 30 * time.Second,
			Suspend:         suspend,
		}}, nil
	default:
		return CostPolicy{}, fmt.Errorf("cost: unknown policy %q (want keepalive-<dur>, target-<n>, or target-<n>-evict)", name)
	}
}

// DefaultCostPolicies is the default sweep axis: the legacy keep-alive
// provider plus three autoscaler operating points, so the frontier spans
// both control-plane families.
func DefaultCostPolicies() []CostPolicy {
	names := []string{"keepalive-5m", "target-1", "target-2", "target-8-evict"}
	policies := make([]CostPolicy, len(names))
	for i, n := range names {
		p, err := ParseCostPolicy(n)
		if err != nil {
			panic(err) // the default names are parseable by construction
		}
		policies[i] = p
	}
	return policies
}

// CostOptions configures the cost/latency sweep: the PR-8 multi-tenant
// replay runs once per control-plane policy, the accumulated usage is
// priced under every billing plan at read time, and the report pairs
// cost-per-million-requests with tail latency — the trade-off the
// keep-alive and autoscaler knobs actually walk.
type CostOptions struct {
	// Provider is the provider profile under test.
	Provider string
	// Tenants is the synthesized population size.
	Tenants int
	// Duration is the arrival window per shard.
	Duration time.Duration
	// Shards splits the population into independent simulations (default 8).
	Shards int
	// Workers bounds concurrently running shard simulations (0 = GOMAXPROCS).
	Workers int
	// Seed roots population synthesis and every shard's randomness.
	Seed int64
	// Policies is the swept control-plane axis (default DefaultCostPolicies).
	Policies []CostPolicy
	// Plans is the billing axis usage is priced under (default all built-in
	// plans; custom plans, e.g. from econ.LoadFile, join the sweep as peers).
	// One replay per policy is priced under every plan.
	Plans []econ.BillingConfig
	// MeanIATLo/Hi bound each tenant's mean inter-arrival time, drawn
	// log-uniformly (default 1s..60s), floored at the tenant's median
	// execution time — identical to the tenants experiment.
	MeanIATLo time.Duration
	MeanIATHi time.Duration
	// Alpha is the latency sketch relative-accuracy target (default 0.02).
	Alpha float64
	// MaxConcurrency caps each tenant's instances (default 16, negative =
	// uncapped).
	MaxConcurrency int
	// ResumeDelay is the suspended→running resume latency under autoscaler
	// policies (default 50ms — well below any cold boot).
	ResumeDelay time.Duration
	// Workflow, when set, additionally deploys this PR-9 topology preset in
	// every shard and reports its cost-per-application under each plan.
	Workflow string
	// Apps is the total workflow launches across shards (default 64 when
	// Workflow is set).
	Apps uint64
	// AppIAT is the inter-arrival time between workflow launches within one
	// shard (default 500ms).
	AppIAT time.Duration
	// AppExec is the per-node busy time of the workflow app (default 20ms).
	AppExec time.Duration
	// SlackTick routes keep-alive expiries onto the timer wheel (0 = exact).
	SlackTick time.Duration
	// Engine selects the invocation execution form.
	Engine cloud.EngineMode
}

func (o CostOptions) normalized() CostOptions {
	if len(o.Policies) == 0 {
		o.Policies = DefaultCostPolicies()
	}
	if len(o.Plans) == 0 {
		for _, name := range econ.Plans() {
			plan, err := econ.Plan(name)
			if err != nil {
				panic(err) // the listed built-ins resolve by construction
			}
			o.Plans = append(o.Plans, plan)
		}
	}
	if o.ResumeDelay <= 0 {
		o.ResumeDelay = 50 * time.Millisecond
	}
	if o.Workflow != "" {
		if o.Apps == 0 {
			o.Apps = 64
		}
		if o.AppIAT <= 0 {
			o.AppIAT = 500 * time.Millisecond
		}
		if o.AppExec <= 0 {
			o.AppExec = 20 * time.Millisecond
		}
	}
	return o
}

// validate checks the cost-only axes; population.validate checks the rest.
func (o CostOptions) validate() error {
	seen := make(map[string]bool, len(o.Policies))
	for i := range o.Policies {
		p := &o.Policies[i]
		if p.Name == "" {
			return fmt.Errorf("cost: policy %d has no name", i)
		}
		if seen[p.Name] {
			return fmt.Errorf("cost: duplicate policy %q", p.Name)
		}
		seen[p.Name] = true
		if p.Autoscaler != nil {
			if err := p.Autoscaler.Validate(); err != nil {
				return fmt.Errorf("cost: policy %q: %w", p.Name, err)
			}
		} else if p.KeepAlive <= 0 {
			return fmt.Errorf("cost: policy %q needs a positive keep-alive or an autoscaler", p.Name)
		}
	}
	seenPlan := make(map[string]bool, len(o.Plans))
	for i := range o.Plans {
		plan := &o.Plans[i]
		if plan.Name == "" {
			return fmt.Errorf("cost: plan %d has no name", i)
		}
		if seenPlan[plan.Name] {
			return fmt.Errorf("cost: duplicate plan %q", plan.Name)
		}
		seenPlan[plan.Name] = true
		if err := plan.Validate(); err != nil {
			return fmt.Errorf("cost: plan %q: %w", plan.Name, err)
		}
	}
	if o.Workflow != "" {
		if _, err := workflow.Preset(o.Workflow, workflow.PresetSpec{}); err != nil {
			return fmt.Errorf("cost: %w", err)
		}
		if o.Apps > 0 && uint64(o.Shards) > o.Apps {
			return fmt.Errorf("cost: %d shards for %d workflow launches", o.Shards, o.Apps)
		}
	}
	return nil
}

// CostPlanPoint is one (policy, plan) cell of the sweep: the replay's usage
// priced under one billing plan, paired with the policy's tail latency to
// form a frontier coordinate.
type CostPlanPoint struct {
	Plan string    `json:"plan"`
	Cost econ.Cost `json:"cost"`
	// CostPerMReq is dollars per million metered requests under this plan.
	CostPerMReq float64 `json:"cost_per_mreq"`
	// P99 echoes the policy's tail latency — the frontier's other axis.
	P99 time.Duration `json:"p99_ns"`
	// Pareto marks cells not dominated on (CostPerMReq, P99) across
	// policies within the same plan: the operating points a provider
	// committed to this plan would actually pick.
	Pareto bool `json:"pareto"`
	// AppTotal/AppPerKRuns price the workflow app's own usage (only when
	// the sweep carries a workflow app).
	AppTotal    float64 `json:"app_total,omitempty"`
	AppPerKRuns float64 `json:"app_per_k_runs,omitempty"`
}

// CostAppPoint is the workflow app's outcome under one policy.
type CostAppPoint struct {
	Topology    string        `json:"topology"`
	Launched    uint64        `json:"launched"`
	Completed   uint64        `json:"completed"`
	Failed      uint64        `json:"failed"`
	Usage       econ.Usage    `json:"usage"`
	MakespanP50 time.Duration `json:"makespan_p50_ns"`
	MakespanP99 time.Duration `json:"makespan_p99_ns"`
}

// CostPolicyPoint is one control-plane policy's merged outcome across
// shards, plus its pricing under every plan.
type CostPolicyPoint struct {
	Policy      string  `json:"policy"`
	Autoscaled  bool    `json:"autoscaled"`
	Invocations uint64  `json:"invocations"`
	ColdServed  uint64  `json:"cold_served"`
	WarmServed  uint64  `json:"warm_served"`
	Errors      uint64  `json:"errors"`
	Expirations uint64  `json:"expirations"`
	Suspends    uint64  `json:"suspends"`
	Resumes     uint64  `json:"resumes"`
	ColdRate    float64 `json:"cold_rate"`
	// Usage is the fleet's metered resource consumption; pricing derives
	// from it at read time, so every plan shares one replay.
	Usage           econ.Usage      `json:"usage"`
	InstanceSeconds float64         `json:"instance_seconds"`
	Latency         stats.Summary   `json:"latency"`
	VirtualTime     time.Duration   `json:"virtual_ns"`
	Plans           []CostPlanPoint `json:"plans"`
	App             *CostAppPoint   `json:"app,omitempty"`

	sketch *sketch.Sketch
}

// LatencySketch returns the policy's merged tenant-latency sketch (nil on
// records rebuilt from JSON).
func (p *CostPolicyPoint) LatencySketch() *sketch.Sketch { return p.sketch }

// CostResult is the full sweep outcome, points in policy order.
type CostResult struct {
	Provider string            `json:"provider"`
	Tenants  int               `json:"tenants"`
	Duration time.Duration     `json:"duration_ns"`
	Shards   int               `json:"shards"`
	Seed     int64             `json:"seed"`
	Workflow string            `json:"workflow,omitempty"`
	Points   []CostPolicyPoint `json:"points"`
}

// RunCost executes the cost/latency sweep: every policy replays the same
// synthesized tenant population (shard seeds ignore the policy index), the
// metered usage is priced under every plan, and Pareto frontiers are marked
// per plan on (cost-per-million-requests, p99).
func RunCost(opts CostOptions) (*CostResult, error) {
	p := population{CostOptions: opts.normalized(), name: "cost"}.normalized()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if err := p.CostOptions.validate(); err != nil {
		return nil, err
	}
	points, _, err := p.replay()
	if err != nil {
		return nil, err
	}

	res := &CostResult{
		Provider: p.Provider,
		Tenants:  p.Tenants,
		Duration: p.Duration,
		Shards:   p.Shards,
		Seed:     p.Seed,
		Workflow: p.Workflow,
		Points:   points,
	}
	for i := range res.Points {
		point := &res.Points[i]
		for _, plan := range p.Plans {
			cell := CostPlanPoint{
				Plan: plan.Name,
				Cost: plan.Price(point.Usage),
				P99:  point.Latency.P99,
			}
			cell.CostPerMReq = econ.PerMillionRequests(cell.Cost.Total, point.Usage.Requests)
			if point.App != nil && point.App.Completed > 0 {
				cell.AppTotal = plan.Price(point.App.Usage).Total
				cell.AppPerKRuns = cell.AppTotal / float64(point.App.Completed) * 1e3
			}
			point.Plans = append(point.Plans, cell)
		}
	}
	// Within each plan, mark the policies not dominated on minimizing
	// (CostPerMReq, P99); a sketch p99 (at most 24h) is exact as float64.
	for pj := range p.Plans {
		front := markPareto(len(res.Points), func(i int) (float64, float64) {
			cell := res.Points[i].Plans[pj]
			return cell.CostPerMReq, float64(cell.P99)
		})
		for i := range res.Points {
			res.Points[i].Plans[pj].Pareto = front[i]
		}
	}
	return res, nil
}

// WriteCostReport renders the sweep as a table: one row per (policy, plan)
// cell, Pareto-optimal cells starred within their plan.
func WriteCostReport(w io.Writer, res *CostResult) {
	fmt.Fprintf(w, "cost sweep: provider=%s tenants=%d duration=%v shards=%d seed=%d",
		res.Provider, res.Tenants, res.Duration, res.Shards, res.Seed)
	if res.Workflow != "" {
		fmt.Fprintf(w, " workflow=%s", res.Workflow)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-16s %-12s %11s %8s %8s %8s %12s %11s %10s %7s\n",
		"policy", "plan", "requests", "cold%", "suspends", "resumes", "total$", "$/Mreq", "p99", "pareto")
	for _, p := range res.Points {
		for _, cell := range p.Plans {
			pareto := ""
			if cell.Pareto {
				pareto = "*"
			}
			fmt.Fprintf(w, "%-16s %-12s %11d %7.3f%% %8d %8d %12.6f %11.4f %10v %7s\n",
				p.Policy, cell.Plan, p.Usage.Requests, p.ColdRate*100, p.Suspends, p.Resumes,
				cell.Cost.Total, cell.CostPerMReq, cell.P99.Round(time.Millisecond), pareto)
		}
	}
	if res.Workflow != "" {
		fmt.Fprintf(w, "\nworkflow app (%s) cost per thousand runs:\n", res.Workflow)
		fmt.Fprintf(w, "%-16s %-12s %9s %8s %12s %12s %10s\n",
			"policy", "plan", "completed", "failed", "app-total$", "$/Kruns", "mk-p99")
		for _, p := range res.Points {
			if p.App == nil {
				continue
			}
			for _, cell := range p.Plans {
				fmt.Fprintf(w, "%-16s %-12s %9d %8d %12.6f %12.6f %10v\n",
					p.Policy, cell.Plan, p.App.Completed, p.App.Failed,
					cell.AppTotal, cell.AppPerKRuns, p.App.MakespanP99.Round(time.Millisecond))
			}
		}
	}
}

// WriteCostCSV writes one row per (policy, plan) cell.
func WriteCostCSV(w io.Writer, res *CostResult) error {
	if _, err := fmt.Fprintln(w, "policy,plan,requests,cold_rate,errors,suspends,resumes,busy_gbms,idle_gbms,suspended_gbms,total_usd,usd_per_mreq,p99_ms,pareto,app_total_usd,app_usd_per_k_runs"); err != nil {
		return err
	}
	for _, p := range res.Points {
		for _, cell := range p.Plans {
			pareto := 0
			if cell.Pareto {
				pareto = 1
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%.6f,%d,%d,%d,%.3f,%.3f,%.3f,%.8f,%.6f,%.3f,%d,%.8f,%.8f\n",
				p.Policy, cell.Plan, p.Usage.Requests, p.ColdRate, p.Errors, p.Suspends, p.Resumes,
				p.Usage.BusyGBms, p.Usage.IdleGBms, p.Usage.SuspendedGBms,
				cell.Cost.Total, cell.CostPerMReq,
				float64(cell.P99)/float64(time.Millisecond), pareto,
				cell.AppTotal, cell.AppPerKRuns); err != nil {
				return err
			}
		}
	}
	return nil
}
