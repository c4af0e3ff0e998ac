package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/stellar-repro/stellar/internal/results"
)

func TestCostCommand(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "cost.json")
	csvPath := filepath.Join(dir, "cost.csv")
	benchPath := filepath.Join(dir, "bench.json")
	savePath := filepath.Join(dir, "point.json")
	code, out, errOut := run(t, "cost",
		"-provider", "aws", "-tenants", "24", "-duration", "30s",
		"-shards", "4", "-seed", "5",
		"-policies", "keepalive-1m,target-1,target-4-evict",
		"-iat-lo", "200ms", "-iat-hi", "2s",
		"-json", jsonPath, "-csv", csvPath, "-bench-json", benchPath,
		"-save", savePath, "-save-policy", "target-1", "-name", "sweep")
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	if !strings.Contains(out, "cost sweep:") || !strings.Contains(out, "$/Mreq") {
		t.Fatalf("missing report table: %q", out)
	}
	if !strings.Contains(out, "wall: ") {
		t.Fatalf("missing wall-clock line: %q", out)
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Points []struct {
			Policy string `json:"policy"`
			Plans  []struct {
				Plan        string  `json:"plan"`
				CostPerMReq float64 `json:"cost_per_mreq"`
			} `json:"plans"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 || len(res.Points[0].Plans) != 2 {
		t.Fatalf("bad JSON shape: %+v", res.Points)
	}
	if res.Points[0].Plans[0].CostPerMReq <= 0 {
		t.Fatalf("no cost in JSON: %+v", res.Points[0])
	}

	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(csv), "\n"); lines != 7 { // header + 3 policies x 2 plans
		t.Fatalf("csv lines = %d, want 7:\n%s", lines, csv)
	}

	bench, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Policies     int     `json:"policies"`
		Plans        int     `json:"plans"`
		Invocations  uint64  `json:"invocations"`
		InvocsPerSec float64 `json:"invocations_per_sec"`
	}
	if err := json.Unmarshal(bench, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.Policies != 3 || bj.Plans != 2 || bj.Invocations == 0 || bj.InvocsPerSec <= 0 {
		t.Fatalf("bad bench JSON: %+v", bj)
	}

	rec, err := results.Load(savePath)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "sweep/target-1" || rec.Sketch == nil || rec.BilledGBSeconds <= 0 {
		t.Fatalf("bad saved record: name=%q sketch=%v gbs=%v", rec.Name, rec.Sketch != nil, rec.BilledGBSeconds)
	}
}

// TestCostCommandEconConfig drives the econ config loader end to end: a
// file-defined autoscaler joins the sweep as policy "custom" and a
// file-defined plan becomes a pricing column.
func TestCostCommandEconConfig(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "econ.json")
	if err := os.WriteFile(cfgPath, []byte(`{
		"autoscaler": {"target": 2, "tick_interval": "500ms", "scale_down_window": "2s", "suspend": true},
		"billing": {"name": "flatrate", "busy_gbms_rate": 1e-8, "per_request_fee": 1e-7}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "cost.json")
	code, _, errOut := run(t, "cost",
		"-tenants", "16", "-duration", "20s", "-shards", "2",
		"-policies", "keepalive-1m", "-econ-config", cfgPath,
		"-workflow", "chain-2", "-apps", "8",
		"-json", jsonPath)
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Points []struct {
			Policy string `json:"policy"`
			Plans  []struct {
				Plan string `json:"plan"`
			} `json:"plans"`
			App *struct {
				Completed uint64 `json:"completed"`
			} `json:"app"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[1].Policy != "custom" {
		t.Fatalf("custom policy missing: %+v", res.Points)
	}
	plans := res.Points[0].Plans
	if len(plans) != 3 || plans[2].Plan != "flatrate" {
		t.Fatalf("custom plan missing: %+v", plans)
	}
	if res.Points[0].App == nil || res.Points[0].App.Completed == 0 {
		t.Fatalf("workflow app missing: %+v", res.Points[0])
	}
}

func TestCostCommandBadFlags(t *testing.T) {
	if code, _, _ := run(t, "cost", "-tenants", "0"); code == 0 {
		t.Fatal("zero tenants accepted")
	}
	if code, _, _ := run(t, "cost", "-policies", "burst-9"); code == 0 {
		t.Fatal("bad policy accepted")
	}
	if code, _, _ := run(t, "cost", "-plans", "freelunch"); code == 0 {
		t.Fatal("unknown plan accepted")
	}
	for _, alpha := range []string{"5", "-0.5"} {
		code, _, errOut := run(t, "cost", "-tenants", "4", "-duration", "10s", "-shards", "2", "-alpha", alpha)
		if code == 0 || !strings.Contains(errOut, "alpha") {
			t.Fatalf("-alpha %s: code=%d err=%q", alpha, code, errOut)
		}
	}
	if code, _, _ := run(t, "cost", "-tenants", "4", "-duration", "10s",
		"-save", "x.json", "-save-policy", "nope"); code == 0 {
		t.Fatal("unknown save policy accepted")
	}
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := run(t, "cost", "-econ-config", empty); code == 0 {
		t.Fatal("empty econ config accepted")
	}
	if code, _, _ := run(t, "cost", "-econ-config", filepath.Join(dir, "missing.json")); code == 0 {
		t.Fatal("missing econ config accepted")
	}
}
