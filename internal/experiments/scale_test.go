package experiments

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/stats"
)

func scaleOpts(n uint64) ScaleOptions {
	return ScaleOptions{
		Provider:    "aws",
		Invocations: n,
		Shards:      4,
		Seed:        7,
		IAT:         20 * time.Millisecond,
		Burst:       2,
	}
}

// TestScaleSketchMemoryIndependentOfInvocations pins the tentpole claim:
// quadrupling the series length leaves the merged sketch's footprint
// byte-for-byte unchanged, while every invocation is still accounted for.
func TestScaleSketchMemoryIndependentOfInvocations(t *testing.T) {
	small, err := RunScale(scaleOpts(10_000))
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunScale(scaleOpts(40_000))
	if err != nil {
		t.Fatal(err)
	}
	if sb, lb := small.Sketch.MemoryBytes(), large.Sketch.MemoryBytes(); sb != lb {
		t.Fatalf("sketch memory grew with series length: %dB at 10k vs %dB at 40k", sb, lb)
	}
	for _, res := range []*ScaleResult{small, large} {
		if got := res.Recorder.Count() + res.Errors; got != res.Invocations {
			t.Fatalf("%d of %d invocations unaccounted for", res.Invocations-got, res.Invocations)
		}
	}
}

// TestScaleDeterministicAcrossWorkers: the merged sketch record, counters,
// and virtual clock are byte-identical at Workers=1 and Workers=4 — the
// same determinism contract the figure suite pins, now for the streaming
// path.
func TestScaleDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *ScaleResult {
		opts := scaleOpts(8_000)
		opts.Workers = workers
		res, err := RunScale(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(4)

	if serial.Colds != parallel.Colds || serial.Errors != parallel.Errors ||
		serial.VirtualTime != parallel.VirtualTime {
		t.Fatalf("counters diverge across workers: %+v vs %+v", serial, parallel)
	}
	enc := func(r *ScaleResult) string {
		b, err := json.Marshal(r.Sketch.Record())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := enc(serial), enc(parallel); a != b {
		t.Fatalf("merged sketch records differ across workers:\n%s\n%s", a, b)
	}
}

// TestScaleExactAgreesWithSketch cross-checks the two recording modes on
// the same seed: sketch quantiles must sit within the advertised relative
// error of the exact per-sample distribution.
func TestScaleExactAgreesWithSketch(t *testing.T) {
	opts := scaleOpts(12_000)
	sk, err := RunScale(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Exact = true
	ex, err := RunScale(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ex.Recorder.(*stats.Sample); !ok {
		t.Fatalf("exact mode recorded into %T, want *stats.Sample", ex.Recorder)
	}
	if sk.Colds != ex.Colds || sk.Errors != ex.Errors {
		t.Fatalf("modes saw different series: colds %d/%d errors %d/%d",
			sk.Colds, ex.Colds, sk.Errors, ex.Errors)
	}
	for _, q := range []float64{0.50, 0.95, 0.99} {
		got, want := sk.Recorder.Quantile(q), ex.Recorder.Quantile(q)
		if rel := math.Abs(float64(got)-float64(want)) / float64(want); rel > 0.01 {
			t.Fatalf("p%g: sketch %v vs exact %v (rel err %.4f > 0.01)", q*100, got, want, rel)
		}
	}
}

// TestScaleOptionValidation: nonsense configurations fail fast.
func TestScaleOptionValidation(t *testing.T) {
	for _, opts := range []ScaleOptions{
		{Invocations: 100}, // no provider
		{Provider: "aws"},  // no invocations
		{Provider: "aws", Invocations: 2, Shards: 4},    // more shards than work
		{Provider: "no-such-cloud", Invocations: 1_000}, // unknown profile
		{Provider: "aws", Invocations: 100, Alpha: 5},   // sketch alpha out of range
	} {
		if _, err := RunScale(opts); err == nil {
			t.Fatalf("RunScale(%+v) accepted invalid options", opts)
		}
	}
}

// TestScaleReportOutput smoke-checks both writers over one small run.
func TestScaleReportOutput(t *testing.T) {
	res, err := RunScale(scaleOpts(4_000))
	if err != nil {
		t.Fatal(err)
	}
	var report strings.Builder
	WriteScaleReport(&report, res)
	for _, want := range []string{"provider=aws", "mode=sketch", "p99=", "memory="} {
		if !strings.Contains(report.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, report.String())
		}
	}
	var csv strings.Builder
	if err := WriteScaleCDF(&csv, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "latency_ns,cdf" || len(lines) < 10 {
		t.Fatalf("CDF csv malformed (%d lines):\n%s", len(lines), lines[0])
	}
	last := lines[len(lines)-1]
	if !strings.HasSuffix(last, "1.000000") {
		t.Fatalf("CDF does not end at 1.0: %q", last)
	}
}
