package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/econ"
)

func costOpts(workers int) CostOptions {
	return CostOptions{
		Provider: "aws",
		Tenants:  24,
		Duration: 30 * time.Second,
		Shards:   4,
		Workers:  workers,
		Seed:     7,
		// Short control-loop cadence so suspend/resume actually fires
		// within the 30s window.
		Policies: []CostPolicy{
			{Name: "keepalive-1m", KeepAlive: time.Minute},
			{Name: "target-1", Autoscaler: &econ.AutoscalerConfig{
				Target: 1, TickInterval: 500 * time.Millisecond,
				ScaleDownWindow: 2 * time.Second, Suspend: true,
			}},
			{Name: "target-4-evict", Autoscaler: &econ.AutoscalerConfig{
				Target: 4, TickInterval: 500 * time.Millisecond,
				ScaleDownWindow: 2 * time.Second,
			}},
		},
		MeanIATLo: 200 * time.Millisecond,
		MeanIATHi: 2 * time.Second,
	}
}

// TestCostSweep checks the sweep's shape and the frontier invariants: every
// policy is priced under every plan, requests are conserved across plans,
// each plan marks at least one Pareto point, and the suspend policy both
// suspends and resumes.
func TestCostSweep(t *testing.T) {
	res, err := RunCost(costOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(res.Points))
	}
	wantPlans := econ.Plans()
	if len(wantPlans) < 2 {
		t.Fatalf("built-in plans = %d, want >= 2", len(wantPlans))
	}
	for _, p := range res.Points {
		if p.Invocations == 0 {
			t.Fatalf("%s: no invocations", p.Policy)
		}
		if p.Usage.Requests != p.Invocations {
			t.Errorf("%s: metered %d requests, admitted %d", p.Policy, p.Usage.Requests, p.Invocations)
		}
		if p.Usage.BusyGBms <= 0 {
			t.Errorf("%s: no busy usage", p.Policy)
		}
		if len(p.Plans) != len(wantPlans) {
			t.Fatalf("%s: %d plan cells, want %d", p.Policy, len(p.Plans), len(wantPlans))
		}
		for i, cell := range p.Plans {
			if cell.Plan != wantPlans[i] {
				t.Errorf("%s: plan[%d] = %s, want %s", p.Policy, i, cell.Plan, wantPlans[i])
			}
			if cell.Cost.Total <= 0 || cell.CostPerMReq <= 0 {
				t.Errorf("%s/%s: non-positive cost %+v", p.Policy, cell.Plan, cell.Cost)
			}
			if cell.P99 != p.Latency.P99 {
				t.Errorf("%s/%s: P99 %v != policy p99 %v", p.Policy, cell.Plan, cell.P99, p.Latency.P99)
			}
		}
		if p.LatencySketch() == nil || p.LatencySketch().Count() == 0 {
			t.Errorf("%s: empty latency sketch", p.Policy)
		}
	}
	for pj, plan := range wantPlans {
		any := false
		for _, p := range res.Points {
			if p.Plans[pj].Pareto {
				any = true
			}
		}
		if !any {
			t.Errorf("plan %s: no Pareto point", plan)
		}
	}

	byName := map[string]*CostPolicyPoint{}
	for i := range res.Points {
		byName[res.Points[i].Policy] = &res.Points[i]
	}
	legacy, suspend, evict := byName["keepalive-1m"], byName["target-1"], byName["target-4-evict"]
	if legacy.Suspends != 0 || legacy.Resumes != 0 {
		t.Errorf("legacy policy suspended (%d/%d)", legacy.Suspends, legacy.Resumes)
	}
	if suspend.Suspends == 0 {
		t.Errorf("target-1 never suspended")
	}
	if suspend.Usage.SuspendedGBms <= 0 {
		t.Errorf("target-1 accrued no suspended usage")
	}
	if evict.Suspends != 0 {
		t.Errorf("evict policy suspended %d instances", evict.Suspends)
	}
	if evict.Usage.SuspendedGBms != 0 {
		t.Errorf("evict policy accrued suspended usage %v", evict.Usage.SuspendedGBms)
	}
	// The aggressive scale-down policies shed idle capacity the legacy
	// keep-alive pays for.
	if suspend.Usage.IdleGBms >= legacy.Usage.IdleGBms {
		t.Errorf("target-1 idle usage %.1f not below keepalive-1m %.1f",
			suspend.Usage.IdleGBms, legacy.Usage.IdleGBms)
	}
}

// TestCostDeterminism checks the acceptance invariant directly: the whole
// serialized sweep is byte-identical at Workers=1 and Workers=8.
func TestCostDeterminism(t *testing.T) {
	render := func(workers int) string {
		res, err := RunCost(costOpts(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		WriteCostReport(&buf, res)
		if err := WriteJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		if err := WriteCostCSV(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(1), render(8)
	if a != b {
		t.Fatalf("Workers=1 and Workers=8 diverge:\n--- w1 ---\n%s\n--- w8 ---\n%s", a, b)
	}
}

// TestCostWorkflowApp checks the cost-per-application path: a workflow app
// deployed alongside the tenant population accrues its own usage and its
// bill scales with the plan.
func TestCostWorkflowApp(t *testing.T) {
	opts := costOpts(0)
	opts.Policies = opts.Policies[:2]
	opts.Workflow = "chain-3"
	opts.Apps = 16
	res, err := RunCost(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workflow != "chain-3" {
		t.Fatalf("workflow = %q", res.Workflow)
	}
	for _, p := range res.Points {
		if p.App == nil {
			t.Fatalf("%s: no app point", p.Policy)
		}
		if p.App.Launched != 16 {
			t.Errorf("%s: launched %d apps, want 16", p.Policy, p.App.Launched)
		}
		if p.App.Completed+p.App.Failed != p.App.Launched {
			t.Errorf("%s: app accounting %d+%d != %d", p.Policy, p.App.Completed, p.App.Failed, p.App.Launched)
		}
		if p.App.Completed == 0 {
			t.Fatalf("%s: no app completed", p.Policy)
		}
		if p.App.Usage.BusyGBms <= 0 {
			t.Errorf("%s: app accrued no busy usage", p.Policy)
		}
		if p.App.MakespanP99 <= 0 {
			t.Errorf("%s: no app makespan", p.Policy)
		}
		for _, cell := range p.Plans {
			if cell.AppTotal <= 0 || cell.AppPerKRuns <= 0 {
				t.Errorf("%s/%s: app bill %v / %v", p.Policy, cell.Plan, cell.AppTotal, cell.AppPerKRuns)
			}
			if cell.AppTotal >= cell.Cost.Total {
				t.Errorf("%s/%s: app bill %v not below fleet bill %v",
					p.Policy, cell.Plan, cell.AppTotal, cell.Cost.Total)
			}
		}
	}
	var buf bytes.Buffer
	WriteCostReport(&buf, res)
	if !strings.Contains(buf.String(), "cost per thousand runs") {
		t.Errorf("report missing app section:\n%s", buf.String())
	}
}

func TestParseCostPolicy(t *testing.T) {
	p, err := ParseCostPolicy("keepalive-90s")
	if err != nil || p.KeepAlive != 90*time.Second || p.Autoscaler != nil {
		t.Fatalf("keepalive-90s -> %+v, %v", p, err)
	}
	p, err = ParseCostPolicy("target-2")
	if err != nil || p.Autoscaler == nil || p.Autoscaler.Target != 2 || !p.Autoscaler.Suspend {
		t.Fatalf("target-2 -> %+v, %v", p, err)
	}
	p, err = ParseCostPolicy("target-0.5-evict")
	if err != nil || p.Autoscaler == nil || p.Autoscaler.Target != 0.5 || p.Autoscaler.Suspend {
		t.Fatalf("target-0.5-evict -> %+v, %v", p, err)
	}
	if err := p.Autoscaler.Validate(); err != nil {
		t.Fatalf("parsed policy invalid: %v", err)
	}
	for _, bad := range []string{"", "keepalive-", "keepalive--5m", "target-", "target-x", "target--1", "burst-3", "target-0"} {
		if _, err := ParseCostPolicy(bad); err == nil {
			t.Errorf("ParseCostPolicy(%q) accepted", bad)
		}
	}
	if len(DefaultCostPolicies()) < 3 {
		t.Fatalf("default policies = %d, want >= 3", len(DefaultCostPolicies()))
	}
}

func TestCostValidation(t *testing.T) {
	base := costOpts(0)
	for name, mutate := range map[string]func(*CostOptions){
		"no-provider":      func(o *CostOptions) { o.Provider = "" },
		"no-tenants":       func(o *CostOptions) { o.Tenants = 0 },
		"no-duration":      func(o *CostOptions) { o.Duration = 0 },
		"unnamed-policy":   func(o *CostOptions) { o.Policies = []CostPolicy{{KeepAlive: time.Minute}} },
		"duplicate-policy": func(o *CostOptions) { o.Policies = append(o.Policies, o.Policies[0]) },
		"zero-keepalive":   func(o *CostOptions) { o.Policies = []CostPolicy{{Name: "x"}} },
		"bad-autoscaler": func(o *CostOptions) {
			o.Policies = []CostPolicy{{Name: "x", Autoscaler: &econ.AutoscalerConfig{Target: -1, TickInterval: time.Second, ScaleDownWindow: time.Second}}}
		},
		"unnamed-plan":   func(o *CostOptions) { o.Plans = []econ.BillingConfig{{BusyGBmsRate: 1e-9}} },
		"duplicate-plan": func(o *CostOptions) { o.Plans = []econ.BillingConfig{{Name: "x"}, {Name: "x"}} },
		"bad-plan":       func(o *CostOptions) { o.Plans = []econ.BillingConfig{{Name: "x", BusyGBmsRate: -1}} },
		"iat-inverted":   func(o *CostOptions) { o.MeanIATLo = time.Minute; o.MeanIATHi = time.Second },
		"bad-workflow":   func(o *CostOptions) { o.Workflow = "nonsense-7" },
		"sparse-apps":    func(o *CostOptions) { o.Workflow = "chain-2"; o.Apps = 2; o.Shards = 4 },
		"neg-slacktick":  func(o *CostOptions) { o.SlackTick = -1 },
		"alpha-high":     func(o *CostOptions) { o.Alpha = 5 },
		"alpha-neg":      func(o *CostOptions) { o.Alpha = -0.5 },
	} {
		opts := base
		opts.Policies = append([]CostPolicy(nil), base.Policies...)
		mutate(&opts)
		if _, err := RunCost(opts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
