package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"github.com/stellar-repro/stellar/internal/experiments"
	"github.com/stellar-repro/stellar/internal/providers"
)

// cmdTenants runs the provider-scale multi-tenant trace replay: a
// synthesized Azure-style tenant population replayed against one simulated
// provider under a swept keep-alive axis, producing the cold-start-rate vs
// instance-seconds Pareto frontier.
func cmdTenants(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("tenants", flag.ContinueOnError)
	fs.SetOutput(stdout)
	prof := addProfileFlags(fs)
	provider := fs.String("provider", "aws", "provider profile")
	providerFile := fs.String("provider-file", "", "JSON provider profile to load and use")
	tenants := fs.Int("tenants", 1000, "synthesized tenant population size")
	duration := fs.Duration("duration", 30*time.Minute, "arrival window (virtual time)")
	shards := fs.Int("shards", 8, "independent simulation shards per policy")
	workers := fs.Int("workers", 0, "concurrent shard simulations (0 = all CPUs, 1 = serial)")
	seed := fs.Int64("seed", 1, "random seed")
	keepalives := fs.String("keepalives", "", "comma-separated keep-alive sweep (default 1m,5m,10m,20m)")
	slack := fs.Duration("slack", 0, "keep-alive timer slack: route expiries via the timer wheel at this tick (0 = exact)")
	iatLo := fs.Duration("iat-lo", time.Second, "lower bound of per-tenant mean inter-arrival time")
	iatHi := fs.Duration("iat-hi", time.Minute, "upper bound of per-tenant mean inter-arrival time")
	alpha := fs.Float64("alpha", 0.02, "per-tenant latency sketch relative accuracy")
	maxConc := fs.Int("max-concurrency", 16, "per-tenant instance cap (-1 = uncapped)")
	top := fs.Int("top", 0, "report the N worst tenants by p99 per policy")
	engine := addEngineFlag(fs)
	jsonPath := fs.String("json", "", "write the sweep as JSON to this file (\"-\" = stdout)")
	csvPath := fs.String("csv", "", "write the sweep as CSV to this file (\"-\" = stdout)")
	benchJSON := fs.String("bench-json", "", "write replay throughput metrics as JSON to this file (\"-\" = stdout)")
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

	opts := experiments.TenantsOptions{
		Provider:       *provider,
		Tenants:        *tenants,
		Duration:       *duration,
		Shards:         *shards,
		Workers:        *workers,
		Seed:           *seed,
		SlackTick:      *slack,
		MeanIATLo:      *iatLo,
		MeanIATHi:      *iatHi,
		Alpha:          *alpha,
		MaxConcurrency: *maxConc,
		Top:            *top,
		Engine:         mode,
	}
	if opts.KeepAlives, err = parseDurations(*keepalives); err != nil {
		return fmt.Errorf("tenants: -keepalives: %w", err)
	}

	wallStart := time.Now()
	res, err := experiments.RunTenants(opts)
	if err != nil {
		return err
	}
	wall := time.Since(wallStart)

	experiments.WriteTenantsReport(stdout, res)
	// Wall-clock throughput lines carry a "wall:" prefix so differential
	// runs (CI's Workers=1 vs Workers=8 diff) can strip the only
	// nondeterministic output.
	var invocations uint64
	for _, p := range res.Points {
		invocations += p.Invocations
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	fmt.Fprintf(stdout, "wall: %.2fs for %d tenant-replays / %d invocations (%.0f tenants/s, %.0f invocations/s), heap sys %.1f MB\n",
		wall.Seconds(), res.Tenants*len(res.Points), invocations,
		float64(res.Tenants*len(res.Points))/wall.Seconds(),
		float64(invocations)/wall.Seconds(),
		float64(mem.HeapSys)/(1<<20))

	if *benchJSON != "" {
		bench := struct {
			Tenants        int     `json:"tenants"`
			Policies       int     `json:"policies"`
			Invocations    uint64  `json:"invocations"`
			WallSeconds    float64 `json:"wall_seconds"`
			TenantsPerSec  float64 `json:"tenants_per_sec"`
			InvocsPerSec   float64 `json:"invocations_per_sec"`
			HeapSysBytes   uint64  `json:"heap_sys_bytes"`
			HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
		}{
			Tenants:        res.Tenants,
			Policies:       len(res.Points),
			Invocations:    invocations,
			WallSeconds:    wall.Seconds(),
			TenantsPerSec:  float64(res.Tenants*len(res.Points)) / wall.Seconds(),
			InvocsPerSec:   float64(invocations) / wall.Seconds(),
			HeapSysBytes:   mem.HeapSys,
			HeapAllocBytes: mem.HeapAlloc,
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
			return experiments.WriteTenantsJSON(w, res)
		}); err != nil {
			return err
		}
	}
	if *csvPath != "" {
		if err := writeTo(*csvPath, stdout, func(w io.Writer) error {
			return experiments.WriteTenantsCSV(w, res)
		}); err != nil {
			return err
		}
	}
	return nil
}

// parseDurations parses a comma-separated duration list ("" = nil for
// defaults).
func parseDurations(s string) ([]time.Duration, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]time.Duration, 0, len(parts))
	for _, p := range parts {
		d, err := time.ParseDuration(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
