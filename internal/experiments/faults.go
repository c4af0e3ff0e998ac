package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/faults"
	"github.com/stellar-repro/stellar/internal/providers"
	"github.com/stellar-repro/stellar/internal/stats"
)

// FaultsOptions configures a fault-injection sweep: a failure-rate ×
// retry-policy grid against one provider. Each grid cell runs Shards
// isolated simulations whose seeds depend only on (Seed, shard index), so
// every cell sees the same arrival randomness and the same fault stream —
// cells differ only in what is injected and how the client defends.
type FaultsOptions struct {
	// Provider is the provider profile under test.
	Provider string
	// Invocations is the per-cell request count, split across Shards.
	Invocations uint64
	// Shards is the number of independent simulations per cell (default 4).
	Shards int
	// Workers bounds concurrently running shard simulations (0 = GOMAXPROCS).
	Workers int
	// Seed roots all randomness.
	Seed int64
	// IAT is the inter-arrival time between bursts within one shard
	// (default 100ms); Burst is the requests per arrival (default 1).
	IAT   time.Duration
	Burst int
	// ExecTime is the function busy-spin time.
	ExecTime time.Duration
	// Rates scales the probabilistic failure modes of Modes per cell
	// (default 0, 0.02, 0.05, 0.1). Rate 0 with no throttling runs the
	// injector-free fast path.
	Rates []float64
	// Policies is the client-resilience axis (default: the naive client
	// and a retrying one).
	Policies []faults.Policy
	// Modes is the injector template each rate scales (see
	// faults.Config.Scaled). The zero value defaults to full-strength
	// drops plus half-strength spawn failures.
	Modes faults.Config
	// Engine selects the invocation execution form. The resilient-client
	// sweep always drives invocations from retry/hedge procs, so both
	// settings run the proc pipeline and outputs are byte-identical; the
	// knob exists so differential runs can assert exactly that.
	Engine cloud.EngineMode
}

func (o FaultsOptions) normalized() FaultsOptions {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.IAT <= 0 {
		o.IAT = 100 * time.Millisecond
	}
	if o.Burst <= 0 {
		o.Burst = 1
	}
	if len(o.Rates) == 0 {
		o.Rates = []float64{0, 0.02, 0.05, 0.1}
	}
	if len(o.Policies) == 0 {
		o.Policies = []faults.Policy{
			{},
			{Timeout: 2 * time.Second, MaxRetries: 3,
				BackoffBase: 100 * time.Millisecond, BackoffCap: time.Second, Jitter: true},
		}
	}
	if o.Modes == (faults.Config{}) {
		o.Modes = faults.Config{DropProb: 1, SpawnFailProb: 0.5}
	}
	return o
}

func (o FaultsOptions) validate() error {
	if o.Provider == "" {
		return fmt.Errorf("faults: provider is required")
	}
	if o.Invocations == 0 {
		return fmt.Errorf("faults: need at least one invocation")
	}
	if uint64(o.Shards) > o.Invocations {
		return fmt.Errorf("faults: %d shards for %d invocations", o.Shards, o.Invocations)
	}
	for _, r := range o.Rates {
		if r < 0 || r > 1 || r != r {
			return fmt.Errorf("faults: rate %v out of range [0, 1]", r)
		}
	}
	for i := range o.Policies {
		if err := o.Policies[i].Validate(); err != nil {
			return fmt.Errorf("faults: policy %d: %w", i, err)
		}
	}
	scaled := o.Modes.Scaled(1)
	if err := scaled.Validate(); err != nil {
		return err
	}
	return nil
}

// PolicyLabel renders a policy compactly for reports ("none",
// "r3/t2s/b100ms..1s/jitter", ...).
func PolicyLabel(p faults.Policy) string {
	if p == (faults.Policy{}) {
		return "none"
	}
	var parts []string
	if p.MaxRetries > 0 {
		parts = append(parts, fmt.Sprintf("r%d", p.MaxRetries))
	}
	if p.Timeout > 0 {
		parts = append(parts, "t"+p.Timeout.String())
	}
	if p.BackoffBase > 0 {
		b := "b" + p.BackoffBase.String()
		if p.BackoffCap > 0 {
			b += ".." + p.BackoffCap.String()
		}
		parts = append(parts, b)
	}
	if p.Jitter {
		parts = append(parts, "jitter")
	}
	if p.HedgeAfter > 0 {
		parts = append(parts, "h"+p.HedgeAfter.String())
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "/")
}

// FaultCell is one (rate, policy) grid cell's merged outcome.
type FaultCell struct {
	// Rate is the failure-rate scale applied to the injector template.
	Rate float64 `json:"rate"`
	// Policy labels the client resilience policy.
	Policy string `json:"policy"`
	// Outcome carries the request-level counters.
	Outcome stats.Outcome `json:"outcome"`
	// SuccessRate and GoodputRPS are the cell's headline numbers; goodput
	// divides merged successes by the slowest shard's virtual time.
	SuccessRate float64 `json:"success_rate"`
	GoodputRPS  float64 `json:"goodput_rps"`
	// Injector-side event counters, summed over shards.
	Drops         uint64 `json:"drops"`
	Throttles     uint64 `json:"throttles"`
	SpawnFailures uint64 `json:"spawn_failures"`
	StorageFaults uint64 `json:"storage_faults"`
	// Latency summarizes successful requests' client-observed latencies —
	// backoff and retry time included, which is where injected faults
	// inflate the tail. All-failed cells leave it zero.
	Latency stats.Summary `json:"latency"`
	// VirtualTime is the slowest shard's simulated duration.
	VirtualTime time.Duration `json:"virtual_ns"`
}

// FaultsResult is a full sweep outcome, cells in rate-major order.
type FaultsResult struct {
	Provider    string      `json:"provider"`
	Invocations uint64      `json:"invocations"`
	Shards      int         `json:"shards"`
	Seed        int64       `json:"seed"`
	Cells       []FaultCell `json:"cells"`
}

// faultsShard is one shard simulation's raw outcome.
type faultsShard struct {
	out     stats.Outcome
	lat     *stats.Sample
	metrics cloud.Metrics
	virtual time.Duration
}

// RunFaults executes the failure-rate × retry-policy sweep. Shard seeds
// depend only on (Seed, shard index) and results merge in shard order, so
// the sweep is byte-identical at any Workers setting.
func RunFaults(opts FaultsOptions) (*FaultsResult, error) {
	opts = opts.normalized()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	type cellSpec struct {
		rate   float64
		policy faults.Policy
	}
	var cells []cellSpec
	for _, r := range opts.Rates {
		for _, pol := range opts.Policies {
			cells = append(cells, cellSpec{rate: r, policy: pol})
		}
	}

	grid, err := runGrid(opts.Workers, opts.Seed, len(cells), opts.Shards,
		func(cell, shard int, shardSeed int64) (*faultsShard, error) {
			return runFaultsShard(opts, cells[cell].rate, cells[cell].policy, shard, shardSeed)
		})
	if err != nil {
		return nil, err
	}

	res := &FaultsResult{
		Provider:    opts.Provider,
		Invocations: opts.Invocations,
		Shards:      opts.Shards,
		Seed:        opts.Seed,
	}
	for ci, cell := range cells {
		merged := FaultCell{Rate: cell.rate, Policy: PolicyLabel(cell.policy)}
		lat := stats.NewSample(int(opts.Invocations))
		for _, sh := range grid[ci] {
			merged.Outcome.Merge(sh.out)
			lat.AddAll(sh.lat.Values())
			merged.Drops += sh.metrics.Drops
			merged.Throttles += sh.metrics.Throttles
			merged.SpawnFailures += sh.metrics.SpawnFailures
			merged.StorageFaults += sh.metrics.StorageFaults
			if sh.virtual > merged.VirtualTime {
				merged.VirtualTime = sh.virtual
			}
		}
		merged.SuccessRate = merged.Outcome.SuccessRate()
		merged.GoodputRPS = merged.Outcome.Goodput(merged.VirtualTime)
		if lat.Len() > 0 {
			merged.Latency = lat.Summarize()
		}
		res.Cells = append(res.Cells, merged)
	}
	return res, nil
}

// runFaultsShard drives one isolated simulation of one grid cell. The
// shard seed ignores the cell (runGrid), isolating the injected failure
// mode as the only difference — which is what makes monotone-degradation
// comparisons across rates meaningful at a fixed seed.
func runFaultsShard(opts FaultsOptions, rate float64, pol faults.Policy, shardIdx int, seed int64) (*faultsShard, error) {
	cfg, err := providers.Get(opts.Provider)
	if err != nil {
		return nil, err
	}
	scaled := opts.Modes.Scaled(rate)
	if scaled.Enabled() {
		cfg.Inject = &scaled
	} else {
		cfg.Inject = nil
	}

	n := shardInvocations(opts.Invocations, opts.Shards, shardIdx)
	out := &faultsShard{lat: stats.NewSample(int(n))}
	if n == 0 {
		return out, nil
	}

	e, err := newEnvWithConfig(cfg, seed)
	if err != nil {
		return nil, fmt.Errorf("faults shard %d: %w", shardIdx, err)
	}
	defer e.close()
	c := e.cloud
	c.SetEngineMode(opts.Engine)
	if err := c.Deploy(cloud.FunctionSpec{
		Name:     "faults",
		Runtime:  cloud.RuntimePython,
		Method:   cloud.DeployZIP,
		ExecTime: opts.ExecTime,
	}); err != nil {
		return nil, fmt.Errorf("faults shard %d: %w", shardIdx, err)
	}

	// The client stream drives jitter; latency comes from Policy.Do, not
	// the cloud's Recorder seam, because the resilient client's latency
	// includes backoff and failed attempts the seam never sees.
	rng := e.client.RNG
	req := &cloud.Request{Fn: "faults"}
	invoke := func(p *des.Proc) {
		r := pol.Do(p, rng, func(ap *des.Proc) error {
			_, err := c.Invoke(ap, req)
			return err
		})
		out.out.Issued++
		out.out.Retries += uint64(r.Retries)
		out.out.Hedges += uint64(r.Hedges)
		if r.Err == nil {
			out.out.Succeeded++
			out.lat.Add(r.Latency)
		}
	}
	eng := e.eng
	eng.Spawn("faults/arrivals", func(p *des.Proc) {
		remaining := n
		for remaining > 0 {
			burst := uint64(opts.Burst)
			if burst > remaining {
				burst = remaining
			}
			for j := uint64(0); j < burst; j++ {
				eng.Spawn("faults/req", invoke)
			}
			remaining -= burst
			if remaining > 0 {
				p.Sleep(opts.IAT)
			}
		}
	})
	eng.Run(0)

	out.metrics = c.Metrics()
	out.virtual = eng.Now()
	if out.out.Issued != n || out.out.Succeeded+out.out.Failed() != n {
		return nil, fmt.Errorf("faults shard %d: conservation violated: issued=%d succeeded=%d of %d",
			shardIdx, out.out.Issued, out.out.Succeeded, n)
	}
	return out, nil
}

// WriteFaultsReport renders the sweep as a table.
func WriteFaultsReport(w io.Writer, res *FaultsResult) {
	fmt.Fprintf(w, "fault sweep: provider=%s invocations=%d/cell shards=%d seed=%d\n",
		res.Provider, res.Invocations, res.Shards, res.Seed)
	fmt.Fprintf(w, "%-6s %-28s %8s %8s %8s %8s %9s %9s %10s %10s\n",
		"rate", "policy", "ok", "failed", "retries", "drops", "success", "goodput", "p50", "p99")
	for _, cell := range res.Cells {
		fmt.Fprintf(w, "%-6g %-28s %8d %8d %8d %8d %8.2f%% %9.2f %10v %10v\n",
			cell.Rate, cell.Policy, cell.Outcome.Succeeded, cell.Outcome.Failed(),
			cell.Outcome.Retries, cell.Drops, cell.SuccessRate*100, cell.GoodputRPS,
			cell.Latency.Median.Round(time.Millisecond), cell.Latency.P99.Round(time.Millisecond))
	}
}

// WriteFaultsCSV writes one row per grid cell.
func WriteFaultsCSV(w io.Writer, res *FaultsResult) error {
	if _, err := fmt.Fprintln(w, "rate,policy,issued,succeeded,failed,retries,hedges,drops,throttles,spawn_failures,storage_faults,success_rate,goodput_rps,median_ms,p95_ms,p99_ms"); err != nil {
		return err
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, c := range res.Cells {
		if _, err := fmt.Fprintf(w, "%g,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%.4f,%.3f,%.3f,%.3f\n",
			c.Rate, c.Policy, c.Outcome.Issued, c.Outcome.Succeeded, c.Outcome.Failed(),
			c.Outcome.Retries, c.Outcome.Hedges, c.Drops, c.Throttles, c.SpawnFailures,
			c.StorageFaults, c.SuccessRate, c.GoodputRPS,
			ms(c.Latency.Median), ms(c.Latency.P95), ms(c.Latency.P99)); err != nil {
			return err
		}
	}
	return nil
}
