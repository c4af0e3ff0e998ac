package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/experiments"
	"github.com/stellar-repro/stellar/internal/stats/sketch"
	"github.com/stellar-repro/stellar/internal/workflow"
)

// lastResult parses the result line a run printed last.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

func TestDigestMismatchFailsRun(t *testing.T) {
	var chk checks
	chk.sameDigest("repeat call", "aaaa", "aaaa")
	if !chk.ok() {
		t.Fatal("equal digests reported as a mismatch")
	}
	chk.sameDigest("workers=1 vs workers=2", "aaaa", "bbbb")
	var stdout, stderr bytes.Buffer
	res := &result{Attempted: 1, Metrics: map[string]metric{"ops_per_s": {1, "1/s"}}}
	if code := finish(&stdout, &stderr, res, &chk); code == 0 {
		t.Fatal("digest mismatch exited 0")
	}
	if lastResult(t, stdout.String()).Correct {
		t.Error("digest mismatch printed correct: true")
	}
	if !strings.Contains(stderr.String(), "workers=1 vs workers=2") {
		t.Errorf("stderr does not name the failed check: %q", stderr.String())
	}
}

func TestConservationMismatchFailsRun(t *testing.T) {
	cost := &experiments.CostResult{Points: []experiments.CostPolicyPoint{
		{Policy: "keepalive-5m", Invocations: 10, ColdServed: 2, WarmServed: 8},
		{Policy: "target-2", Invocations: 10, ColdServed: 2, WarmServed: 7}, // one request lost
	}}
	if err := checkCost(cost); err == nil {
		t.Fatal("lost request not detected")
	}
	var chk checks
	chk.outcome(&outcome{err: checkCost(cost)})
	var stdout, stderr bytes.Buffer
	if code := finish(&stdout, &stderr, &result{Attempted: 20, Metrics: map[string]metric{}}, &chk); code == 0 {
		t.Fatal("conservation failure exited 0")
	}
	if lastResult(t, stdout.String()).Correct {
		t.Error("conservation failure printed correct: true")
	}
}

func TestConservationChecks(t *testing.T) {
	cost := &experiments.CostResult{Points: []experiments.CostPolicyPoint{
		{Policy: "a", Invocations: 10, ColdServed: 2, WarmServed: 7, Errors: 1},
		{Policy: "b", Invocations: 10, ColdServed: 1, WarmServed: 9},
	}}
	if err := checkCost(cost); err != nil {
		t.Errorf("conserved cost sweep rejected: %v", err)
	}
	cost.Points[1].Invocations, cost.Points[1].WarmServed = 11, 10
	if err := checkCost(cost); err == nil {
		t.Error("policies replaying different request counts not detected")
	}

	wf := &experiments.WorkflowResult{
		Workflows: 5, Completed: 4, Failed: 1,
		Barriers: []workflow.BarrierMetrics{{}, {Started: 5, Completed: 3, Dropped: 1, Failed: 1}},
	}
	if err := checkWorkflow(wf); err != nil {
		t.Errorf("conserved workflow run rejected: %v", err)
	}
	wf.Barriers[1].Dropped = 0
	if err := checkWorkflow(wf); err == nil {
		t.Error("barrier started != completed+dropped+failed not detected")
	}
	wf.Barriers[1].Dropped, wf.Failed = 1, 0
	if err := checkWorkflow(wf); err == nil {
		t.Error("workflow completed+failed != launched not detected")
	}

	sk := sketch.New(0)
	for i := 0; i < 9; i++ {
		sk.Add(time.Millisecond)
	}
	scale := &experiments.ScaleResult{Invocations: 10, Errors: 1, Recorder: sk, Sketch: sk}
	if err := checkScale(scale); err != nil {
		t.Errorf("conserved scale series rejected: %v", err)
	}
	scale.Errors = 0
	if err := checkScale(scale); err == nil {
		t.Error("unrecorded invocation not detected")
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "warm-scale", "--trace", "2"},
		{"--workload", "warm-scale", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v exited 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v printed %q", args, stdout.String())
		}
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := []float64{0, 1, 2, 3}
	if got := histQuantile([]uint64{0, 0, 0}, bounds, 0.99); got != 0 {
		t.Errorf("empty histogram: %v", got)
	}
	if got := histQuantile([]uint64{98, 1, 1}, bounds, 0.99); got != 3 {
		t.Errorf("p99 = %v, want 3", got)
	}
	if got := histQuantile([]uint64{50, 50, 0}, bounds, 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
}

func TestReadBenchNs(t *testing.T) {
	in := `goos: linux
BenchmarkEventThroughput      	     300	        59.04 ns/op	       0 B/op	       0 allocs/op
BenchmarkEventThroughput-2    	     300	        51.00 ns/op
BenchmarkEventThroughput      	     300	        53.00 ns/op
BenchmarkKeepAliveChurn/heap-2 	     300	       460.0 ns/op
PASS
`
	got, err := readBenchNs(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkEventThroughput"] != 53 || got["BenchmarkKeepAliveChurn/heap"] != 460 || len(got) != 2 {
		t.Errorf("got %v", got)
	}
}
