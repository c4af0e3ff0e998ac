package cli

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/experiments"
	"github.com/stellar-repro/stellar/internal/providers"
)

// populationFlags are the flags `tenants` and `cost` share: the synthesized
// population, its sharding, the per-tenant replay knobs and the exports.
type populationFlags struct {
	fs                           *flag.FlagSet
	prof                         *profileFlags
	provider, providerFile       *string
	tenants                      *int
	duration                     *time.Duration
	shards, workers              *int
	seed                         *int64
	slack, iatLo, iatHi          *time.Duration
	alpha                        *float64
	maxConc                      *int
	engine                       engineFlag
	jsonPath, csvPath, benchJSON *string
}

// newPopulationFlags starts the command's flag set with the shared flags,
// using the command's own population-size and window defaults and help
// wording.
func newPopulationFlags(name string, stdout io.Writer, tenants int, duration time.Duration, alphaUsage, benchUsage string) *populationFlags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stdout)
	return &populationFlags{
		fs:           fs,
		prof:         addProfileFlags(fs),
		provider:     fs.String("provider", "aws", "provider profile"),
		providerFile: fs.String("provider-file", "", "JSON provider profile to load and use"),
		tenants:      fs.Int("tenants", tenants, "synthesized tenant population size"),
		duration:     fs.Duration("duration", duration, "arrival window (virtual time)"),
		shards:       fs.Int("shards", 8, "independent simulation shards per policy"),
		workers:      fs.Int("workers", 0, "concurrent shard simulations (0 = all CPUs, 1 = serial)"),
		seed:         fs.Int64("seed", 1, "random seed"),
		slack:        fs.Duration("slack", 0, "keep-alive timer slack: route expiries via the timer wheel at this tick (0 = exact)"),
		iatLo:        fs.Duration("iat-lo", time.Second, "lower bound of per-tenant mean inter-arrival time"),
		iatHi:        fs.Duration("iat-hi", time.Minute, "upper bound of per-tenant mean inter-arrival time"),
		alpha:        fs.Float64("alpha", 0.02, alphaUsage),
		maxConc:      fs.Int("max-concurrency", 16, "per-tenant instance cap (-1 = uncapped)"),
		engine:       addEngineFlag(fs),
		jsonPath:     fs.String("json", "", "write the sweep as JSON to this file (\"-\" = stdout)"),
		csvPath:      fs.String("csv", "", "write the sweep as CSV to this file (\"-\" = stdout)"),
		benchJSON:    fs.String("bench-json", "", benchUsage),
	}
}

// run parses args, starts any profiles, loads -provider-file and parses
// -engine, then runs the command body; profiles stop when it returns.
func (f *populationFlags) run(args []string, body func(cloud.EngineMode) error) (err error) {
	if err := f.fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := f.prof.start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	if *f.providerFile != "" {
		loaded, err := providers.RegisterFile(*f.providerFile)
		if err != nil {
			return err
		}
		*f.provider = loaded
	}
	mode, err := f.engine.mode()
	if err != nil {
		return err
	}
	return body(mode)
}

// populationBench is the -bench-json record of a population replay.
// TenantsPerSec is reported by `tenants` only and Plans by `cost` only.
type populationBench struct {
	Tenants        int     `json:"tenants"`
	Policies       int     `json:"policies"`
	Plans          int     `json:"plans,omitempty"`
	Invocations    uint64  `json:"invocations"`
	WallSeconds    float64 `json:"wall_seconds"`
	TenantsPerSec  float64 `json:"tenants_per_sec,omitempty"`
	InvocsPerSec   float64 `json:"invocations_per_sec"`
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
}

// finish prints the "wall:" throughput line, then writes the -bench-json,
// -json and -csv exports. The wall line is the only nondeterministic
// stdout; its prefix lets CI's Workers=1 vs Workers=8 diffs strip it.
func (f *populationFlags) finish(stdout io.Writer, wall time.Duration, replays string, b populationBench,
	res any, writeCSV func(io.Writer) error) error {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	b.WallSeconds = wall.Seconds()
	b.InvocsPerSec = float64(b.Invocations) / b.WallSeconds
	b.HeapSysBytes, b.HeapAllocBytes = mem.HeapSys, mem.HeapAlloc
	tenantRate := ""
	if b.TenantsPerSec > 0 {
		tenantRate = fmt.Sprintf("%.0f tenants/s, ", b.TenantsPerSec)
	}
	fmt.Fprintf(stdout, "wall: %.2fs for %s / %d invocations (%s%.0f invocations/s), heap sys %.1f MB\n",
		b.WallSeconds, replays, b.Invocations, tenantRate, b.InvocsPerSec, float64(mem.HeapSys)/(1<<20))

	if err := writeTo(*f.benchJSON, stdout, func(w io.Writer) error { return experiments.WriteJSON(w, b) }); err != nil {
		return err
	}
	if err := writeTo(*f.jsonPath, stdout, func(w io.Writer) error { return experiments.WriteJSON(w, res) }); err != nil {
		return err
	}
	return writeTo(*f.csvPath, stdout, writeCSV)
}
