package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"github.com/stellar-repro/stellar/internal/econ"
	"github.com/stellar-repro/stellar/internal/experiments"
	"github.com/stellar-repro/stellar/internal/providers"
	"github.com/stellar-repro/stellar/internal/results"
)

// cmdCost runs the control-plane cost/latency sweep: the multi-tenant
// replay once per autoscaler/keep-alive policy, the metered usage priced
// under every billing plan, reporting cost-per-million-requests vs p99
// Pareto frontiers (and optionally a workflow app's cost-per-application).
func cmdCost(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("cost", flag.ContinueOnError)
	fs.SetOutput(stdout)
	prof := addProfileFlags(fs)
	provider := fs.String("provider", "aws", "provider profile")
	providerFile := fs.String("provider-file", "", "JSON provider profile to load and use")
	tenants := fs.Int("tenants", 500, "synthesized tenant population size")
	duration := fs.Duration("duration", 10*time.Minute, "arrival window (virtual time)")
	shards := fs.Int("shards", 8, "independent simulation shards per policy")
	workers := fs.Int("workers", 0, "concurrent shard simulations (0 = all CPUs, 1 = serial)")
	seed := fs.Int64("seed", 1, "random seed")
	policies := fs.String("policies", "", "comma-separated control-plane policies: keepalive-<dur>, target-<n>, target-<n>-evict (default keepalive-5m,target-1,target-2,target-8-evict)")
	plans := fs.String("plans", "", "comma-separated built-in billing plans (default all: "+strings.Join(econ.Plans(), ",")+")")
	econConfig := fs.String("econ-config", "", "JSON econ config file; its autoscaler joins the sweep as policy \"custom\", its billing plan as a pricing column")
	resumeDelay := fs.Duration("resume-delay", 50*time.Millisecond, "suspended-to-running resume latency under autoscaler policies")
	slack := fs.Duration("slack", 0, "keep-alive timer slack: route expiries via the timer wheel at this tick (0 = exact)")
	iatLo := fs.Duration("iat-lo", time.Second, "lower bound of per-tenant mean inter-arrival time")
	iatHi := fs.Duration("iat-hi", time.Minute, "upper bound of per-tenant mean inter-arrival time")
	alpha := fs.Float64("alpha", 0.02, "latency sketch relative accuracy")
	maxConc := fs.Int("max-concurrency", 16, "per-tenant instance cap (-1 = uncapped)")
	topology := fs.String("workflow", "", "also deploy this workflow preset and report its cost per application")
	apps := fs.Uint64("apps", 64, "total workflow launches across shards (with -workflow)")
	appIAT := fs.Duration("app-iat", 500*time.Millisecond, "inter-arrival time between workflow launches per shard")
	appExec := fs.Duration("app-exec", 20*time.Millisecond, "per-node busy time of the workflow app")
	engine := addEngineFlag(fs)
	jsonPath := fs.String("json", "", "write the sweep as JSON to this file (\"-\" = stdout)")
	csvPath := fs.String("csv", "", "write the sweep as CSV to this file (\"-\" = stdout)")
	benchJSON := fs.String("bench-json", "", "write sweep throughput metrics as JSON to this file (\"-\" = stdout)")
	savePath := fs.String("save", "", "save one policy's merged latency sketch as a results file")
	savePolicy := fs.String("save-policy", "", "policy to save (default: the first swept policy)")
	name := fs.String("name", "cost", "run name used in saved results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	if *providerFile != "" {
		loaded, err := providers.RegisterFile(*providerFile)
		if err != nil {
			return err
		}
		*provider = loaded
	}
	mode, err := engine.mode()
	if err != nil {
		return err
	}

	opts := experiments.CostOptions{
		Provider:       *provider,
		Tenants:        *tenants,
		Duration:       *duration,
		Shards:         *shards,
		Workers:        *workers,
		Seed:           *seed,
		ResumeDelay:    *resumeDelay,
		SlackTick:      *slack,
		MeanIATLo:      *iatLo,
		MeanIATHi:      *iatHi,
		Alpha:          *alpha,
		MaxConcurrency: *maxConc,
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
	// Wall-clock throughput lines carry a "wall:" prefix so differential
	// runs (CI's Workers=1 vs Workers=8 diff) can strip the only
	// nondeterministic output.
	var invocations uint64
	for _, p := range res.Points {
		invocations += p.Invocations
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	fmt.Fprintf(stdout, "wall: %.2fs for %d policy-replays / %d invocations (%.0f invocations/s), heap sys %.1f MB\n",
		wall.Seconds(), len(res.Points), invocations,
		float64(invocations)/wall.Seconds(), float64(mem.HeapSys)/(1<<20))

	if *benchJSON != "" {
		bench := struct {
			Tenants        int     `json:"tenants"`
			Policies       int     `json:"policies"`
			Plans          int     `json:"plans"`
			Invocations    uint64  `json:"invocations"`
			WallSeconds    float64 `json:"wall_seconds"`
			InvocsPerSec   float64 `json:"invocations_per_sec"`
			HeapSysBytes   uint64  `json:"heap_sys_bytes"`
			HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
		}{
			Tenants:        res.Tenants,
			Policies:       len(res.Points),
			Invocations:    invocations,
			WallSeconds:    wall.Seconds(),
			InvocsPerSec:   float64(invocations) / wall.Seconds(),
			HeapSysBytes:   mem.HeapSys,
			HeapAllocBytes: mem.HeapAlloc,
		}
		if len(res.Points) > 0 {
			bench.Plans = len(res.Points[0].Plans)
		}
		if err := writeTo(*benchJSON, stdout, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(bench)
		}); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		if err := writeTo(*jsonPath, stdout, func(w io.Writer) error {
			return experiments.WriteCostJSON(w, res)
		}); err != nil {
			return err
		}
	}
	if *csvPath != "" {
		if err := writeTo(*csvPath, stdout, func(w io.Writer) error {
			return experiments.WriteCostCSV(w, res)
		}); err != nil {
			return err
		}
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
}
