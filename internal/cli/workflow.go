package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/stellar-repro/stellar/internal/experiments"
	"github.com/stellar-repro/stellar/internal/providers"
	"github.com/stellar-repro/stellar/internal/results"
	"github.com/stellar-repro/stellar/internal/trace"
	"github.com/stellar-repro/stellar/internal/workflow"
)

// cmdWorkflow runs an orchestrated multi-function workflow series: a DAG
// topology preset executed over the simulated cloud, reporting workflow
// makespans, critical-path shares, per-edge transfer tails, join-barrier
// accounting, and the per-stage attribution of sampled workflow trace trees.
func cmdWorkflow(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("workflow", flag.ContinueOnError)
	fs.SetOutput(stdout)
	prof := addProfileFlags(fs)
	provider := fs.String("provider", "aws", "provider profile")
	providerFile := fs.String("provider-file", "", "JSON provider profile to load and use")
	id := fs.String("id", "fanout-8", "topology preset (chain-N, fanout-K, diamond, mapreduce)")
	workflows := fs.Uint64("n", 1000, "total workflow instances across all shards")
	shards := fs.Int("shards", 8, "independent simulation shards")
	workers := fs.Int("workers", 0, "concurrent shards (0 = all CPUs, 1 = serial)")
	iat := fs.Duration("iat", 100*time.Millisecond, "inter-arrival time between bursts within a shard")
	burst := fs.Int("burst", 1, "workflow launches per arrival step")
	modeFlag := fs.String("mode", "sync", "edge invocation mode (sync|async)")
	transferFlag := fs.String("transfer", "inline", "edge data-passing mode (inline|blobstore)")
	payload := fs.Int64("payload", 64<<10, "per-edge payload bytes")
	need := fs.Int("need", 0, "first-K join straggler policy for fan-in nodes (0 = wait all)")
	exec := fs.Duration("exec", 5*time.Millisecond, "per-node busy-spin time")
	sample := fs.Float64("sample", 0.25, "per-workflow trace-sampling rate in [0,1]")
	ring := fs.Int("ring", 0, "per-shard trace ring capacity (0 = default 8192)")
	engine := addEngineFlag(fs)
	seed := fs.Int64("seed", 1, "random seed")
	sweep := fs.Bool("sweep", false, "sweep edge modes x transfers x payload sizes instead of one cell")
	payloads := fs.String("payloads", "", "comma-separated payload sizes for -sweep (default 1024,65536,1048576)")
	out := fs.String("out", "", "write retained workflow traces as Chrome trace_event JSON")
	savePath := fs.String("save", "", "save the run (makespans + edge sketches + traces) as a results file")
	name := fs.String("name", "workflow", "run name used in saved results")
	benchJSON := fs.String("bench-json", "", "write workflow replay throughput metrics as JSON to this file (\"-\" = stdout)")
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
	engineMode, err := engine.mode()
	if err != nil {
		return err
	}
	edgeMode, err := workflow.ParseMode(*modeFlag)
	if err != nil {
		return err
	}
	edgeTransfer, err := workflow.ParseTransfer(*transferFlag)
	if err != nil {
		return err
	}

	opts := experiments.WorkflowOptions{
		Provider:     *provider,
		Topology:     *id,
		Workflows:    *workflows,
		Shards:       *shards,
		Workers:      *workers,
		Seed:         *seed,
		IAT:          *iat,
		Burst:        *burst,
		Mode:         edgeMode,
		Transfer:     edgeTransfer,
		PayloadBytes: *payload,
		Need:         *need,
		ExecTime:     *exec,
		Sample:       *sample,
		TraceRing:    *ring,
		Engine:       engineMode,
	}

	if *sweep {
		var sizes []int64
		if *payloads != "" {
			for _, field := range strings.Split(*payloads, ",") {
				n, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
				if err != nil {
					return fmt.Errorf("workflow: bad -payloads entry %q: %w", field, err)
				}
				sizes = append(sizes, n)
			}
		}
		res, err := experiments.RunWorkflowSweep(opts, nil, nil, sizes)
		if err != nil {
			return err
		}
		experiments.WriteWorkflowSweepReport(stdout, res)
		return nil
	}

	wallStart := time.Now()
	res, err := experiments.RunWorkflow(opts)
	if err != nil {
		return err
	}
	wall := time.Since(wallStart)
	experiments.WriteWorkflowReport(stdout, res)

	if *benchJSON != "" {
		var invocations uint64
		for _, m := range res.CloudMetrics {
			invocations += m.Invocations + m.InternalInvocations
		}
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		bench := struct {
			Topology       string  `json:"topology"`
			Workflows      uint64  `json:"workflows"`
			Nodes          int     `json:"nodes"`
			Edges          int     `json:"edges"`
			Invocations    uint64  `json:"invocations"`
			WallSeconds    float64 `json:"wall_seconds"`
			WorkflowsPerS  float64 `json:"workflows_per_sec"`
			InvocsPerSec   float64 `json:"invocations_per_sec"`
			HeapSysBytes   uint64  `json:"heap_sys_bytes"`
			HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
		}{
			Topology:       res.Topology,
			Workflows:      res.Workflows,
			Nodes:          len(res.DAG.Nodes),
			Edges:          len(res.DAG.Edges),
			Invocations:    invocations,
			WallSeconds:    wall.Seconds(),
			WorkflowsPerS:  float64(res.Workflows) / wall.Seconds(),
			InvocsPerSec:   float64(invocations) / wall.Seconds(),
			HeapSysBytes:   mem.HeapSys,
			HeapAllocBytes: mem.HeapAlloc,
		}
		if err := writeTo(*benchJSON, stdout, func(w io.Writer) error { return experiments.WriteJSON(w, bench) }); err != nil {
			return err
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := trace.WriteTraceEvents(f, res.Traces); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d traces to %s (load in Perfetto or chrome://tracing)\n",
			len(res.Traces), *out)
	}
	if *savePath != "" {
		edges := make([]results.NamedSketch, len(res.EdgeSketches))
		for i, sk := range res.EdgeSketches {
			edges[i] = results.NamedSketch{Name: res.DAG.Edges[i].Label(), Sketch: sk.Record()}
		}
		rec := results.FromWorkflowRun(*name, res.Makespans, edges, res.Traces,
			int(res.Colds), int(res.Failed))
		if err := rec.Save(*savePath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "run saved to %s\n", *savePath)
	}
	return nil
}
