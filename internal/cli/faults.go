package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/stellar-repro/stellar/internal/experiments"
	"github.com/stellar-repro/stellar/internal/faults"
	"github.com/stellar-repro/stellar/internal/providers"
)

// cmdFaults runs the fault-injection sweep: a failure-rate × retry-policy
// grid against one simulated provider, reporting success rate, retry cost,
// goodput, and the latency tail the retries inflate.
func cmdFaults(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("faults", flag.ContinueOnError)
	fs.SetOutput(stdout)
	prof := addProfileFlags(fs)
	provider := fs.String("provider", "aws", "provider profile")
	providerFile := fs.String("provider-file", "", "JSON provider profile to load and use")
	configPath := fs.String("config", "", "fault config JSON ({\"inject\": ..., \"policy\": ...})")
	invocations := fs.Uint64("n", 2000, "requests per grid cell, split across shards")
	shards := fs.Int("shards", 4, "independent simulation shards per cell")
	workers := fs.Int("workers", 0, "concurrent shard simulations (0 = all CPUs, 1 = serial)")
	seed := fs.Int64("seed", 1, "random seed")
	iat := fs.Duration("iat", 100*time.Millisecond, "inter-arrival time between bursts")
	burst := fs.Int("burst", 1, "requests per arrival step")
	exec := fs.Duration("exec", 0, "function busy-spin time")
	rates := fs.String("rates", "", "comma-separated failure-rate scales (default 0,0.02,0.05,0.1)")
	retriesGrid := fs.String("retries", "", "comma-separated max-retry values for the policy axis (default 0,3)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-attempt client timeout for retrying policies")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "base retry backoff")
	backoffCap := fs.Duration("backoff-cap", time.Second, "retry backoff cap")
	jitter := fs.Bool("jitter", true, "add deterministic jitter to backoff")
	hedge := fs.Duration("hedge", 0, "launch a hedged attempt after this delay (0 = off)")
	engine := addEngineFlag(fs)
	jsonPath := fs.String("json", "", "write the sweep as JSON to this file (\"-\" = stdout)")
	csvPath := fs.String("csv", "", "write the sweep as CSV to this file (\"-\" = stdout)")
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

	opts := experiments.FaultsOptions{
		Provider:    *provider,
		Invocations: *invocations,
		Shards:      *shards,
		Workers:     *workers,
		Seed:        *seed,
		IAT:         *iat,
		Burst:       *burst,
		ExecTime:    *exec,
		Engine:      mode,
	}
	if opts.Rates, err = parseFloats(*rates); err != nil {
		return fmt.Errorf("faults: -rates: %w", err)
	}
	if opts.Policies, err = buildPolicyGrid(*retriesGrid, *timeout, *backoff, *backoffCap, *jitter, *hedge); err != nil {
		return err
	}
	if *configPath != "" {
		loaded, err := faults.LoadFile(*configPath)
		if err != nil {
			return err
		}
		if loaded.Inject != nil {
			opts.Modes = *loaded.Inject
		}
		if loaded.Policy != nil {
			// An explicit policy replaces the flag-built grid, keeping
			// the naive client as the baseline column.
			opts.Policies = []faults.Policy{{}, *loaded.Policy}
		}
	}

	res, err := experiments.RunFaults(opts)
	if err != nil {
		return err
	}
	experiments.WriteFaultsReport(stdout, res)
	if err := writeTo(*jsonPath, stdout, func(w io.Writer) error { return experiments.WriteJSON(w, res) }); err != nil {
		return err
	}
	return writeTo(*csvPath, stdout, func(w io.Writer) error { return experiments.WriteFaultsCSV(w, res) })
}

// writeTo runs emit against a created file, or stdout when path is "-";
// an empty path (the export was not asked for) writes nothing.
func writeTo(path string, stdout io.Writer, emit func(io.Writer) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return emit(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseFloats parses a comma-separated float list ("" = nil for defaults).
func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// buildPolicyGrid turns the retry-count list plus shared policy flags into
// the policy axis. Retry count 0 maps to the naive client (no timeout, no
// backoff): the baseline every resilient variant is compared against.
func buildPolicyGrid(retriesGrid string, timeout, backoff, backoffCap time.Duration, jitter bool, hedge time.Duration) ([]faults.Policy, error) {
	if retriesGrid == "" {
		retriesGrid = "0,3"
	}
	var out []faults.Policy
	for _, p := range strings.Split(retriesGrid, ",") {
		r, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("faults: -retries: %w", err)
		}
		if r == 0 {
			out = append(out, faults.Policy{})
			continue
		}
		pol := faults.Policy{
			Timeout:     timeout,
			MaxRetries:  r,
			BackoffBase: backoff,
			BackoffCap:  backoffCap,
			Jitter:      jitter,
			HedgeAfter:  hedge,
		}
		if err := pol.Validate(); err != nil {
			return nil, fmt.Errorf("faults: %w", err)
		}
		out = append(out, pol)
	}
	return out, nil
}
