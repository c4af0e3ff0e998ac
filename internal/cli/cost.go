package cli

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/econ"
	"github.com/stellar-repro/stellar/internal/experiments"
	"github.com/stellar-repro/stellar/internal/results"
)

// cmdCost runs the control-plane cost/latency sweep: the multi-tenant
// replay once per autoscaler/keep-alive policy, the metered usage priced
// under every billing plan, reporting cost-per-million-requests vs p99
// Pareto frontiers (and optionally a workflow app's cost-per-application).
func cmdCost(args []string, stdout io.Writer) error {
	pf := newPopulationFlags("cost", stdout, 500, 10*time.Minute, "latency sketch relative accuracy",
		"write sweep throughput metrics as JSON to this file (\"-\" = stdout)")
	policies := pf.fs.String("policies", "", "comma-separated control-plane policies: keepalive-<dur>, target-<n>, target-<n>-evict (default keepalive-5m,target-1,target-2,target-8-evict)")
	plans := pf.fs.String("plans", "", "comma-separated built-in billing plans (default all: "+strings.Join(econ.Plans(), ",")+")")
	econConfig := pf.fs.String("econ-config", "", "JSON econ config file; its autoscaler joins the sweep as policy \"custom\", its billing plan as a pricing column")
	resumeDelay := pf.fs.Duration("resume-delay", 50*time.Millisecond, "suspended-to-running resume latency under autoscaler policies")
	topology := pf.fs.String("workflow", "", "also deploy this workflow preset and report its cost per application")
	apps := pf.fs.Uint64("apps", 64, "total workflow launches across shards (with -workflow)")
	appIAT := pf.fs.Duration("app-iat", 500*time.Millisecond, "inter-arrival time between workflow launches per shard")
	appExec := pf.fs.Duration("app-exec", 20*time.Millisecond, "per-node busy time of the workflow app")
	savePath := pf.fs.String("save", "", "save one policy's merged latency sketch as a results file")
	savePolicy := pf.fs.String("save-policy", "", "policy to save (default: the first swept policy)")
	name := pf.fs.String("name", "cost", "run name used in saved results")
	return pf.run(args, func(mode cloud.EngineMode) error {
		opts := experiments.CostOptions{
			Provider:       *pf.provider,
			Tenants:        *pf.tenants,
			Duration:       *pf.duration,
			Shards:         *pf.shards,
			Workers:        *pf.workers,
			Seed:           *pf.seed,
			ResumeDelay:    *resumeDelay,
			SlackTick:      *pf.slack,
			MeanIATLo:      *pf.iatLo,
			MeanIATHi:      *pf.iatHi,
			Alpha:          *pf.alpha,
			MaxConcurrency: *pf.maxConc,
			Workflow:       *topology,
			Apps:           *apps,
			AppIAT:         *appIAT,
			AppExec:        *appExec,
			Engine:         mode,
		}
		if *policies != "" {
			for _, p := range strings.Split(*policies, ",") {
				pol, err := experiments.ParseCostPolicy(strings.TrimSpace(p))
				if err != nil {
					return err
				}
				opts.Policies = append(opts.Policies, pol)
			}
		}
		if *plans != "" {
			for _, p := range strings.Split(*plans, ",") {
				plan, err := econ.Plan(strings.TrimSpace(p))
				if err != nil {
					return err
				}
				opts.Plans = append(opts.Plans, plan)
			}
		}
		if *econConfig != "" {
			loaded, err := econ.LoadFile(*econConfig)
			if err != nil {
				return err
			}
			if loaded.Autoscaler == nil && loaded.Billing == nil {
				return fmt.Errorf("cost: %s defines neither an autoscaler nor a billing plan", *econConfig)
			}
			// File-defined axes extend the sweep rather than replacing it, so a
			// custom operating point is always seen next to the defaults.
			if len(opts.Policies) == 0 {
				opts.Policies = experiments.DefaultCostPolicies()
			}
			if loaded.Autoscaler != nil {
				opts.Policies = append(opts.Policies, experiments.CostPolicy{
					Name:       "custom",
					Autoscaler: loaded.Autoscaler,
				})
			}
			if loaded.Billing != nil {
				if len(opts.Plans) == 0 {
					for _, name := range econ.Plans() {
						plan, err := econ.Plan(name)
						if err != nil {
							return err
						}
						opts.Plans = append(opts.Plans, plan)
					}
				}
				opts.Plans = append(opts.Plans, *loaded.Billing)
			}
		}

		wallStart := time.Now()
		res, err := experiments.RunCost(opts)
		if err != nil {
			return err
		}
		wall := time.Since(wallStart)

		experiments.WriteCostReport(stdout, res)
		b := populationBench{Tenants: res.Tenants, Policies: len(res.Points)}
		for _, p := range res.Points {
			b.Invocations += p.Invocations
		}
		if len(res.Points) > 0 {
			b.Plans = len(res.Points[0].Plans)
		}
		if err := pf.finish(stdout, wall, fmt.Sprintf("%d policy-replays", len(res.Points)), b, res,
			func(w io.Writer) error { return experiments.WriteCostCSV(w, res) }); err != nil {
			return err
		}
		if *savePath != "" {
			point := &res.Points[0]
			if *savePolicy != "" {
				point = nil
				for i := range res.Points {
					if res.Points[i].Policy == *savePolicy {
						point = &res.Points[i]
						break
					}
				}
				if point == nil {
					return fmt.Errorf("cost: -save-policy %q not in the sweep", *savePolicy)
				}
			}
			u := point.Usage
			rec := results.FromCostRun(*name+"/"+point.Policy, point.LatencySketch(),
				int(point.ColdServed), int(point.Errors),
				(u.BusyGBms+u.IdleGBms+u.SuspendedGBms)/1e3)
			if err := rec.Save(*savePath); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "policy %s saved to %s\n", point.Policy, *savePath)
		}
		return nil
	})
}
