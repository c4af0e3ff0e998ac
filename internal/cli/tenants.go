package cli

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/experiments"
)

// cmdTenants runs the provider-scale multi-tenant trace replay: a
// synthesized Azure-style tenant population replayed against one simulated
// provider under a swept keep-alive axis, producing the cold-start-rate vs
// instance-seconds Pareto frontier.
func cmdTenants(args []string, stdout io.Writer) error {
	pf := newPopulationFlags("tenants", stdout, 1000, 30*time.Minute, "per-tenant latency sketch relative accuracy",
		"write replay throughput metrics as JSON to this file (\"-\" = stdout)")
	keepalives := pf.fs.String("keepalives", "", "comma-separated keep-alive sweep (default 1m,5m,10m,20m)")
	top := pf.fs.Int("top", 0, "report the N worst tenants by p99 per policy")
	return pf.run(args, func(mode cloud.EngineMode) error {
		keepAlives, err := parseDurations(*keepalives)
		if err != nil {
			return fmt.Errorf("tenants: -keepalives: %w", err)
		}
		opts := experiments.TenantsOptions{
			Provider:       *pf.provider,
			Tenants:        *pf.tenants,
			Duration:       *pf.duration,
			Shards:         *pf.shards,
			Workers:        *pf.workers,
			Seed:           *pf.seed,
			SlackTick:      *pf.slack,
			MeanIATLo:      *pf.iatLo,
			MeanIATHi:      *pf.iatHi,
			Alpha:          *pf.alpha,
			MaxConcurrency: *pf.maxConc,
			KeepAlives:     keepAlives,
			Top:            *top,
			Engine:         mode,
		}

		wallStart := time.Now()
		res, err := experiments.RunTenants(opts)
		if err != nil {
			return err
		}
		wall := time.Since(wallStart)

		experiments.WriteTenantsReport(stdout, res)
		b := populationBench{Tenants: res.Tenants, Policies: len(res.Points)}
		for _, p := range res.Points {
			b.Invocations += p.Invocations
		}
		replays := res.Tenants * len(res.Points)
		b.TenantsPerSec = float64(replays) / wall.Seconds()
		return pf.finish(stdout, wall, fmt.Sprintf("%d tenant-replays", replays), b, res,
			func(w io.Writer) error { return experiments.WriteTenantsCSV(w, res) })
	})
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
