package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// updateGolden rewrites the committed fingerprint fixtures from the current
// engine. Run `go test ./internal/experiments -run TestGoldenFigureFingerprints
// -update-golden` only when an intentional statistical change is made; engine
// refactors must leave the fixtures untouched.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden figure fingerprints")

// checkGolden pins one fixture: the Workers=1 rendering must match
// testdata/golden/<name>.fingerprint byte for byte (-update-golden rewrites
// it instead), and the Workers=8 rendering must reproduce it.
func checkGolden(t *testing.T, name string, render func(workers int) string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".fingerprint")
	fp := render(1)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(fp), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update-golden to regenerate): %v", err)
	}
	if fp != string(want) {
		t.Errorf("%s: Workers=1 output diverged from the seed-engine fixture\n--- got ---\n%s--- want ---\n%s",
			name, fp, want)
	}
	if fp8 := render(8); fp8 != string(want) {
		t.Errorf("%s: Workers=8 output diverged from the seed-engine fixture\n--- got ---\n%s--- want ---\n%s",
			name, fp8, want)
	}
}

// TestGoldenFigureFingerprints pins every figure's summary fingerprint to a
// fixture generated with the seed engine. Together with the Workers=1 vs
// Workers=8 determinism test this guarantees that engine rewrites (heap
// layout, timer cancellation, goroutine pooling) change only wall-clock
// time, never simulation output: the same seed must produce byte-identical
// figures at any worker count.
func TestGoldenFigureFingerprints(t *testing.T) {
	for _, fr := range figureRunners {
		fr := fr
		t.Run(fr.name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, fr.name, func(workers int) string {
				fig, err := fr.run(detOpts(1, workers))
				if err != nil {
					t.Fatalf("%s Workers=%d: %v", fr.name, workers, err)
				}
				return fingerprint(fig)
			})
		})
	}
}

// replayGoldens are the population replays pinned by committed fingerprints:
// the cost sweep over the two control-plane policies the benchmark replays
// (legacy keep-alive and the suspend/resume autoscaler) and the tenants
// keep-alive frontier, each rendered as report plus JSON.
var replayGoldens = []struct {
	name   string
	render func(t *testing.T, workers int) string
}{
	{"cost", func(t *testing.T, workers int) string {
		opts := CostOptions{Provider: "aws", Tenants: 300, Duration: time.Minute, Shards: 4, Workers: workers, Seed: 1}
		for _, name := range []string{"keepalive-5m", "target-2"} {
			p, err := ParseCostPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			opts.Policies = append(opts.Policies, p)
		}
		res, err := RunCost(opts)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		WriteCostReport(&b, res)
		if err := WriteJSON(&b, res); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}},
	{"tenants", func(t *testing.T, workers int) string {
		res, err := RunTenants(TenantsOptions{
			Provider: "aws", Tenants: 300, Duration: time.Minute, Shards: 4, Workers: workers, Seed: 1,
			KeepAlives: []time.Duration{time.Minute, 5 * time.Minute},
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		WriteTenantsReport(&b, res)
		if err := WriteJSON(&b, res); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}},
}

// TestGoldenReplayFingerprints pins the population replays the way the
// figure fingerprints pin the figures. Engine and RNG optimizations on the
// replay path must leave them untouched.
func TestGoldenReplayFingerprints(t *testing.T) {
	for _, g := range replayGoldens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, g.name, func(workers int) string { return g.render(t, workers) })
		})
	}
}
