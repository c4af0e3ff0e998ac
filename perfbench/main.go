// Command perfbench is the repository benchmark. It drives the simulator
// only through its public entry points (experiments.RunScale, RunCost,
// RunWorkflow, and an in-process httpfaas server under stress.Run) on four
// canonical workloads, checks the results, and prints one JSON object as its
// last line of output:
//
//	--trace 0   end-to-end metrics (host speed, memory, simulated latency)
//	--trace 1   per-layer metrics (CPU profile split by package, direct timed
//	            calls into each layer, counts from the public results)
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload warm-scale --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, metrics and self-checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times a run sets its workload up; setup_s is their
// median.
const setups = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer (traced) metrics")
	xcheck := fs.String("xcheck", "", "go test -bench output (e.g. BENCH_BASELINE.txt) to compare the traced run's microprobes against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}

	man := newManifest(args, w, *seed, *seconds, *traced == 1)
	line, err := json.Marshal(map[string]any{"manifest": man})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))

	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	var chk checks
	if *traced == 1 {
		res, err = runTraced(w, *seed, budget, &chk, *xcheck, stderr)
	} else {
		res, err = runEndToEnd(w, *seed, budget, &chk, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return finish(stdout, stderr, res, &chk)
}

// finish prints the result line and turns failed self-checks into a
// non-zero exit code.
func finish(stdout, stderr io.Writer, res *result, chk *checks) int {
	res.Correct = chk.ok()
	for _, f := range chk.failures {
		fmt.Fprintln(stderr, "perfbench: self-check failed:", f)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", k, m.Value)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runEndToEnd sets the workload up several times, then repeats the timed
// call until the budget is spent and reports per-call medians.
func runEndToEnd(w *workload, seed int64, budget time.Duration, chk *checks, stderr io.Writer) (*result, error) {
	var setupTimes []float64
	var sess session
	for i := 0; i < setups; i++ {
		if sess != nil {
			sess.close()
		}
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		s, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		sess = s
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer sess.close()

	sampler := startHeapSampler()
	defer sampler.stop()
	calls, err := timedCalls(sess, sampler, budget, chk)
	if err != nil {
		return nil, err
	}
	logCalls(stderr, setupTimes, calls)

	res := &result{Metrics: map[string]metric{}}
	for _, c := range calls {
		res.Attempted += c.out.ops
		res.Failed += c.out.failed
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("setup_s", median(setupTimes), "s")
	put("ops_per_s", medianOf(calls, func(c callStats) float64 { return float64(c.out.ops) / c.wall.Seconds() }), "1/s")
	put("cpu_us_per_op", medianOf(calls, func(c callStats) float64 { return micros(c.cpu) / float64(c.out.ops) }), "us")
	put("peak_heap_mb", medianOf(calls, func(c callStats) float64 { return float64(c.peakHeap) / (1 << 20) }), "MB")
	put("allocs_per_op", medianOf(calls, func(c callStats) float64 { return float64(c.allocs) / float64(c.out.ops) }), "count")
	// Simulated workloads repeat one result exactly. In the real-time
	// stress simulation a host delay only ever adds virtual latency, so the
	// least-disturbed call estimates the simulated latency best.
	put("sim_p50_ms", minOf(calls, func(c callStats) float64 { return millis(c.out.simP50) }), "ms")
	put("sim_p99_ms", minOf(calls, func(c callStats) float64 { return millis(c.out.simP99) }), "ms")
	return res, nil
}

// callStats is one timed call's host-side measurements.
type callStats struct {
	out      *outcome
	wall     time.Duration
	cpu      time.Duration
	allocs   uint64
	peakHeap uint64
	gcCycles uint64
	sched    []uint64 // scheduling-latency histogram counts during the call
}

// minCalls is the fewest timed calls a run makes, whatever the budget, so
// medians and the digest check always have several calls to work with.
const minCalls = 3

// timedCalls repeats the workload's timed call until budget is spent, with
// all shard workers. Every call at one seed must reproduce the first call's
// simulated-result digest.
func timedCalls(sess session, sampler *heapSampler, budget time.Duration, chk *checks) ([]callStats, error) {
	var calls []callStats
	start := time.Now()
	for len(calls) < minCalls || time.Since(start) < budget {
		c, err := measureCall(sess, sampler, benchWorkers)
		if err != nil {
			return nil, err
		}
		chk.outcome(c.out)
		if len(calls) > 0 {
			chk.sameDigest("repeat call", calls[0].out.digest, c.out.digest)
		}
		calls = append(calls, c)
	}
	return calls, nil
}

// logCalls prints each set-up and timed call to stderr, so a noisy median
// can be traced to the calls behind it.
func logCalls(w io.Writer, setupTimes []float64, calls []callStats) {
	for i, s := range setupTimes {
		fmt.Fprintf(w, "setup %d: %.4fs\n", i, s)
	}
	for i, c := range calls {
		fmt.Fprintf(w, "call %d: %d ops in %v (cpu %v), %.0f ops/s, %d allocs, peak heap %d B, %d GCs, sim p50 %v p99 %v\n",
			i, c.out.ops, c.wall.Round(time.Microsecond), c.cpu.Round(time.Microsecond),
			float64(c.out.ops)/c.wall.Seconds(), c.allocs, c.peakHeap, c.gcCycles, c.out.simP50, c.out.simP99)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(calls []callStats, f func(callStats) float64) float64 {
	xs := make([]float64, len(calls))
	for i, c := range calls {
		xs[i] = f(c)
	}
	return median(xs)
}

func minOf(calls []callStats, f func(callStats) float64) float64 {
	m := f(calls[0])
	for _, c := range calls[1:] {
		m = math.Min(m, f(c))
	}
	return m
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
