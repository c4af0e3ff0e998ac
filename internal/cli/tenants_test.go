package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTenantsCommand(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "tenants.json")
	csvPath := filepath.Join(dir, "tenants.csv")
	benchPath := filepath.Join(dir, "bench.json")
	code, out, errOut := run(t, "tenants",
		"-provider", "aws", "-tenants", "30", "-duration", "4m",
		"-shards", "4", "-seed", "5", "-keepalives", "1m,10m", "-top", "2",
		"-json", jsonPath, "-csv", csvPath, "-bench-json", benchPath)
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	if !strings.Contains(out, "tenants sweep:") || !strings.Contains(out, "keepalive") {
		t.Fatalf("missing report table: %q", out)
	}
	if !strings.Contains(out, "wall: ") {
		t.Fatalf("missing wall-clock line: %q", out)
	}
	if !strings.Contains(out, "worst tenants by p99") {
		t.Fatalf("missing top-tenants section: %q", out)
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Points []struct {
			Invocations uint64 `json:"invocations"`
			Pareto      bool   `json:"pareto"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[0].Invocations == 0 {
		t.Fatalf("bad JSON points: %+v", res.Points)
	}

	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(csv), "\n"); lines != 3 { // header + 2 points
		t.Fatalf("csv lines = %d, want 3:\n%s", lines, csv)
	}

	bench, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Invocations  uint64  `json:"invocations"`
		InvocsPerSec float64 `json:"invocations_per_sec"`
	}
	if err := json.Unmarshal(bench, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.Invocations == 0 || bj.InvocsPerSec <= 0 {
		t.Fatalf("bad bench JSON: %+v", bj)
	}
}

func TestTenantsCommandBadFlags(t *testing.T) {
	if code, _, _ := run(t, "tenants", "-tenants", "0"); code == 0 {
		t.Fatal("zero tenants accepted")
	}
	if code, _, _ := run(t, "tenants", "-keepalives", "bogus"); code == 0 {
		t.Fatal("bad keepalive list accepted")
	}
	if code, _, _ := run(t, "tenants", "-provider", "nope", "-tenants", "2", "-duration", "1m"); code == 0 {
		t.Fatal("unknown provider accepted")
	}
	for _, alpha := range []string{"5", "-0.5"} {
		code, _, errOut := run(t, "tenants", "-tenants", "4", "-duration", "10s", "-shards", "2",
			"-keepalives", "1m", "-alpha", alpha)
		if code == 0 || !strings.Contains(errOut, "alpha") {
			t.Fatalf("-alpha %s: code=%d err=%q", alpha, code, errOut)
		}
	}
}
