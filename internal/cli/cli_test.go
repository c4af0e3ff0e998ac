package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/stellar-repro/stellar/internal/results"
)

// run invokes Main capturing output.
func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := Main(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestNoArgsUsage(t *testing.T) {
	code, _, errOut := run(t)
	if code != 2 || !strings.Contains(errOut, "commands:") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func TestUnknownCommand(t *testing.T) {
	code, _, errOut := run(t, "launch-rockets")
	if code != 2 || !strings.Contains(errOut, "unknown command") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func TestHelp(t *testing.T) {
	code, out, _ := run(t, "help")
	if code != 0 || !strings.Contains(out, "experiment") {
		t.Fatalf("code=%d out=%q", code, out)
	}
}

func TestProvidersCommand(t *testing.T) {
	code, out, _ := run(t, "providers")
	if code != 0 {
		t.Fatalf("code=%d", code)
	}
	for _, want := range []string{"aws", "google", "azure"} {
		if !strings.Contains(out, want) {
			t.Errorf("providers output missing %s: %q", want, out)
		}
	}
}

func TestBenchCommand(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "out.csv")
	code, out, errOut := run(t, "bench",
		"-provider", "google", "-samples", "50", "-warmup", "2", "-csv", csvPath)
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	for _, want := range []string{"samples=50", "latency:", "median=", "latency CDF"} {
		if !strings.Contains(out, want) {
			t.Errorf("bench output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "label,value_ns,frac") {
		t.Errorf("csv header wrong: %q", string(data[:40]))
	}
}

func TestBenchBreakdownFlag(t *testing.T) {
	code, out, errOut := run(t, "bench",
		"-provider", "aws", "-samples", "30", "-warmup", "1", "-exec", "100ms", "-breakdown")
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	for _, want := range []string{"component", "exec", "propagation", "billed="} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown output missing %q", want)
		}
	}
}

func TestBenchUnknownProvider(t *testing.T) {
	code, _, errOut := run(t, "bench", "-provider", "oracle", "-samples", "5")
	if code != 1 || !strings.Contains(errOut, "unknown provider") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func TestBenchBadIATDist(t *testing.T) {
	code, _, errOut := run(t, "bench", "-provider", "aws", "-samples", "5", "-iat-dist", "zipf")
	if code != 1 || !strings.Contains(errOut, "IAT distribution") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func TestExperimentCommand(t *testing.T) {
	code, out, errOut := run(t, "experiment", "-id", "fig3a", "-samples", "120", "-replicas", "10")
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	for _, want := range []string{"fig3a", "aws", "google", "azure", "paper-med"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiment output missing %q", want)
		}
	}
}

// TestExperimentWorkersDeterminism: a figure report must be byte-identical
// at any -workers setting.
func TestExperimentWorkersDeterminism(t *testing.T) {
	var outs []string
	for _, workers := range []string{"1", "8"} {
		code, out, errOut := run(t, "experiment", "-id", "fig3a",
			"-samples", "120", "-replicas", "10", "-workers", workers)
		if code != 0 {
			t.Fatalf("workers=%s: code=%d err=%q", workers, code, errOut)
		}
		outs = append(outs, out)
	}
	if outs[0] != outs[1] {
		t.Errorf("experiment output differs between -workers 1 and -workers 8\n--- workers=1 ---\n%s--- workers=8 ---\n%s",
			outs[0], outs[1])
	}
}

func TestExperimentUnknownID(t *testing.T) {
	code, _, errOut := run(t, "experiment", "-id", "fig99")
	if code != 1 || !strings.Contains(errOut, "unknown id") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func writeTestFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCommandSimTransport(t *testing.T) {
	static := writeTestFile(t, "static.json", `{
		"provider": "aws",
		"functions": [{"name": "f", "runtime": "go1.x", "method": "zip",
			"chain": {"length": 2, "transfer": "inline", "payload_bytes": 1024}}]
	}`)
	rt := writeTestFile(t, "rt.json", `{"samples": 40, "iat": "3s", "warmup_discard": 2}`)
	epsPath := filepath.Join(t.TempDir(), "eps.json")
	code, out, errOut := run(t, "run",
		"-static", static, "-runtime", rt, "-endpoints", epsPath, "-breakdown")
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	for _, want := range []string{"wrote 1 endpoints", "transfer:", "downstream"} {
		if !strings.Contains(out, want) {
			t.Errorf("run output missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(epsPath); err != nil {
		t.Errorf("endpoints file not written: %v", err)
	}
}

func TestRunCommandMissingFlags(t *testing.T) {
	code, _, errOut := run(t, "run")
	if code != 1 || !strings.Contains(errOut, "-runtime is required") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	rt := writeTestFile(t, "rt.json", `{"samples": 5, "iat": "1s"}`)
	code, _, errOut = run(t, "run", "-runtime", rt)
	if code != 1 || !strings.Contains(errOut, "-static is required") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	code, _, errOut = run(t, "run", "-runtime", rt, "-transport", "http")
	if code != 1 || !strings.Contains(errOut, "-endpoints is required") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	code, _, errOut = run(t, "run", "-runtime", rt, "-transport", "carrier-pigeon")
	if code != 1 || !strings.Contains(errOut, "unknown transport") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func TestRunCommandBadConfigFiles(t *testing.T) {
	rt := writeTestFile(t, "rt.json", `{"samples": 5, "iat": "1s"}`)
	code, _, errOut := run(t, "run", "-runtime", rt, "-static", "/does/not/exist.json")
	if code != 1 || !strings.Contains(errOut, "static config") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	badRt := writeTestFile(t, "bad.json", `{"samples": "lots"}`)
	code, _, errOut = run(t, "run", "-runtime", badRt)
	if code != 1 {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func TestPlotMain(t *testing.T) {
	csv := writeTestFile(t, "data.csv",
		"label,value_ns,frac\nwarm,1000000,0.5\nwarm,2000000,1.0\n")
	var out, errOut strings.Builder
	code := PlotMain([]string{"-title", "mychart", csv}, &out, &errOut)
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "mychart") || !strings.Contains(out.String(), "warm") {
		t.Errorf("plot output missing content:\n%s", out.String())
	}
}

func TestPlotMainErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := PlotMain(nil, &out, &errOut); code != 2 {
		t.Fatalf("no-args code=%d", code)
	}
	errOut.Reset()
	if code := PlotMain([]string{"/does/not/exist.csv"}, &out, &errOut); code != 1 {
		t.Fatalf("missing-file code=%d", code)
	}
	bad := writeTestFile(t, "bad.csv", "label,value_ns,frac\noops\n")
	errOut.Reset()
	if code := PlotMain([]string{bad}, &out, &errOut); code != 1 ||
		!strings.Contains(errOut.String(), "malformed") {
		t.Fatalf("malformed-file: %q", errOut.String())
	}
	badVal := writeTestFile(t, "badval.csv", "label,value_ns,frac\nx,soon,1\n")
	errOut.Reset()
	if code := PlotMain([]string{badVal}, &out, &errOut); code != 1 ||
		!strings.Contains(errOut.String(), "bad value") {
		t.Fatalf("bad-value: %q", errOut.String())
	}
	empty := writeTestFile(t, "empty.csv", "label,value_ns,frac\n")
	errOut.Reset()
	if code := PlotMain([]string{empty}, &out, &errOut); code != 1 ||
		!strings.Contains(errOut.String(), "no data rows") {
		t.Fatalf("empty-file: %q", errOut.String())
	}
}

func TestSimMainServesAndStops(t *testing.T) {
	static := writeTestFile(t, "static.json", `{
		"provider": "google",
		"functions": [{"name": "hello", "runtime": "go1.x", "method": "zip"}]
	}`)
	epsPath := filepath.Join(t.TempDir(), "eps.json")
	stop := make(chan struct{})
	ready := make(chan string, 1)
	done := make(chan int, 1)
	var out, errOut strings.Builder
	go func() {
		done <- SimMain([]string{
			"-provider", "google", "-addr", "127.0.0.1:0", "-scale", "100",
			"-static", static, "-endpoints", epsPath,
		}, &out, &errOut, stop, ready)
	}()
	base := <-ready
	if !strings.HasPrefix(base, "http://127.0.0.1:") {
		t.Fatalf("base URL %q", base)
	}
	close(stop)
	if code := <-done; code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "deployed 1 endpoints") {
		t.Errorf("sim output missing deployment:\n%s", out.String())
	}
	if _, err := os.Stat(epsPath); err != nil {
		t.Errorf("endpoints file missing: %v", err)
	}
}

func TestSimMainBadProvider(t *testing.T) {
	var out, errOut strings.Builder
	code := SimMain([]string{"-provider", "oracle"}, &out, &errOut, nil, nil)
	if code != 1 || !strings.Contains(errOut.String(), "unknown provider") {
		t.Fatalf("code=%d err=%q", code, errOut.String())
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	// Two runs of the same provider/seed are identical; different exec
	// times are clearly distinguishable.
	for _, tc := range []struct{ path, exec string }{{a, "0s"}, {b, "200ms"}} {
		code, _, errOut := run(t, "bench", "-provider", "google", "-samples", "120",
			"-warmup", "2", "-exec", tc.exec, "-save", tc.path, "-name", filepath.Base(tc.path))
		if code != 0 {
			t.Fatalf("bench failed: %s", errOut)
		}
	}
	code, out, errOut := run(t, "compare", a, b)
	if code != 0 {
		t.Fatalf("compare failed: %s", errOut)
	}
	for _, want := range []string{"a.json", "b.json", "median", "Mann-Whitney", "distributions differ"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
}

func TestCompareCommandErrors(t *testing.T) {
	code, _, errOut := run(t, "compare", "only-one.json")
	if code != 1 || !strings.Contains(errOut, "exactly two") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	code, _, _ = run(t, "compare", "/missing/a.json", "/missing/b.json")
	if code != 1 {
		t.Fatalf("code=%d", code)
	}
}

func TestBenchTimelineFlag(t *testing.T) {
	code, out, errOut := run(t, "bench",
		"-provider", "aws", "-samples", "40", "-timeline", "30s")
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	for _, want := range []string{"latency over the run", "median bar"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline output missing %q", want)
		}
	}
}

func TestAzTraceCommand(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.csv")
	code, stdout, errOut := run(t, "aztrace", "-generate", "500", "-out", out)
	if code != 0 {
		t.Fatalf("generate: code=%d err=%q", code, errOut)
	}
	if !strings.Contains(stdout, "wrote 500 functions") {
		t.Fatalf("generate output: %q", stdout)
	}
	code, stdout, errOut = run(t, "aztrace", "-analyze", out)
	if code != 0 {
		t.Fatalf("analyze: code=%d err=%q", code, errOut)
	}
	for _, want := range []string{"trace: 500 functions", "P(TMR<10)", "<1s", "TMR CDFs"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("analysis missing %q", want)
		}
	}
	// Generate to stdout when no -out given.
	code, stdout, _ = run(t, "aztrace", "-generate", "3")
	if code != 0 || !strings.HasPrefix(stdout, "function,p25_ms") {
		t.Fatalf("stdout generate: code=%d out=%q", code, stdout[:40])
	}
}

func TestAzTraceCommandErrors(t *testing.T) {
	code, _, errOut := run(t, "aztrace")
	if code != 1 || !strings.Contains(errOut, "need -generate") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	code, _, _ = run(t, "aztrace", "-analyze", "/missing.csv")
	if code != 1 {
		t.Fatalf("code=%d", code)
	}
}

func TestTraceCommand(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.json")
	save := filepath.Join(dir, "run.json")
	code, stdout, errOut := run(t, "trace",
		"-provider", "aws", "-n", "400", "-shards", "4", "-workers", "1",
		"-iat", "50ms", "-burst", "4", "-sample", "1", "-slowest", "8",
		"-out", out, "-save", save, "-name", "traced")
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	for _, want := range []string{
		"trace series: provider=aws invocations=400 shards=4",
		"traces: retained=",
		"tail attribution",
		"queue-wait share",
		"wrote", "run saved to",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("trace output missing %q in %q", want, stdout)
		}
	}
	// The exported file must be valid Chrome trace_event JSON.
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace.json has no events")
	}
	// The saved run must round-trip through results.Load (which re-validates
	// every trace's tiling invariant).
	rec, err := results.Load(save)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "traced" || len(rec.Traces) == 0 || len(rec.LatenciesNS) == 0 {
		t.Fatalf("saved record: name=%q traces=%d lats=%d",
			rec.Name, len(rec.Traces), len(rec.LatenciesNS))
	}
}

func TestTraceCommandErrors(t *testing.T) {
	// Sampler fully disabled.
	code, _, errOut := run(t, "trace", "-n", "10", "-shards", "1", "-sample", "0", "-slowest", "0")
	if code != 1 || !strings.Contains(errOut, "sampler disabled") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	// Unknown provider.
	code, _, _ = run(t, "trace", "-provider", "nope", "-n", "10", "-shards", "1")
	if code != 1 {
		t.Fatalf("code=%d", code)
	}
}

func TestExperimentCSVDir(t *testing.T) {
	dir := t.TempDir()
	code, _, errOut := run(t, "experiment", "-id", "fig3a",
		"-samples", "100", "-replicas", "10", "-csv-dir", dir)
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "label,value_ns,frac") {
		t.Fatalf("csv content: %q", string(data[:40]))
	}
	for _, prov := range []string{"aws", "google", "azure"} {
		if !strings.Contains(string(data), prov) {
			t.Errorf("csv missing %s series", prov)
		}
	}
}

func TestRunCommandSave(t *testing.T) {
	static := writeTestFile(t, "static.json", `{
		"provider": "google",
		"functions": [{"name": "f", "runtime": "python3", "method": "zip"}]
	}`)
	rt := writeTestFile(t, "rt.json", `{"samples": 20, "iat": "3s", "warmup_discard": 1}`)
	save := filepath.Join(t.TempDir(), "run.json")
	code, out, errOut := run(t, "run", "-static", static, "-runtime", rt, "-save", save, "-name", "g")
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	if !strings.Contains(out, "run saved to") {
		t.Fatalf("missing save confirmation:\n%s", out)
	}
	if _, err := os.Stat(save); err != nil {
		t.Fatal(err)
	}
}

func TestSimAndRunCLIsIntegrate(t *testing.T) {
	// stellar-sim serves a provider over HTTP; stellar run benchmarks it
	// with the HTTP transport — the two CLIs end to end.
	static := writeTestFile(t, "static.json", `{
		"provider": "google",
		"functions": [{"name": "itg", "runtime": "go1.x", "method": "zip"}]
	}`)
	epsPath := filepath.Join(t.TempDir(), "eps.json")
	stop := make(chan struct{})
	ready := make(chan string, 1)
	done := make(chan int, 1)
	var simOut, simErr strings.Builder
	go func() {
		done <- SimMain([]string{
			"-provider", "google", "-addr", "127.0.0.1:0", "-scale", "200",
			"-static", static, "-endpoints", epsPath,
		}, &simOut, &simErr, stop, ready)
	}()
	<-ready
	defer func() {
		close(stop)
		<-done
	}()

	rt := writeTestFile(t, "rt.json", `{"samples": 10, "iat": "3s", "warmup_discard": 2}`)
	code, out, errOut := run(t, "run",
		"-transport", "http", "-endpoints", epsPath, "-runtime", rt, "-scale", "200")
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	if !strings.Contains(out, "samples=10 colds=0") {
		t.Fatalf("http run output:\n%s", out)
	}
}

// TestScaleCommand exercises the sketch-summarized series end to end:
// report, saved sketch record, and CDF export.
func TestScaleCommand(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "cdf.csv")
	savePath := filepath.Join(dir, "scale.json")
	code, out, errOut := run(t, "scale",
		"-provider", "google", "-n", "4000", "-shards", "2",
		"-iat", "20ms", "-csv", csvPath, "-save", savePath)
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	for _, want := range []string{"invocations=4000", "mode=sketch", "p99=", "memory=", "sketch saved"} {
		if !strings.Contains(out, want) {
			t.Errorf("scale output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "latency_ns,cdf") {
		t.Errorf("csv header wrong: %q", string(data[:20]))
	}
	rec, err := results.Load(savePath)
	if err != nil {
		t.Fatal(err)
	}
	r, err := rec.Recorder()
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() == 0 || rec.Sketch == nil || len(rec.LatenciesNS) != 0 {
		t.Fatalf("saved scale record malformed: count=%d sketch=%v lats=%d",
			r.Count(), rec.Sketch != nil, len(rec.LatenciesNS))
	}
}

// TestScaleCommandExactRejectsSave: exact mode has no sketch to persist.
func TestScaleCommandExactRejectsSave(t *testing.T) {
	code, _, errOut := run(t, "scale",
		"-provider", "google", "-n", "200", "-shards", "2", "-iat", "20ms",
		"-exact", "-save", filepath.Join(t.TempDir(), "x.json"))
	if code == 0 || !strings.Contains(errOut, "-exact") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

// TestScaleCommandBadFlags: an out-of-range sketch accuracy is a flag
// error (non-zero exit), not a panic inside a shard goroutine.
func TestScaleCommandBadFlags(t *testing.T) {
	code, _, errOut := run(t, "scale", "-n", "200", "-shards", "2", "-alpha", "5")
	if code == 0 || !strings.Contains(errOut, "alpha") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

// TestCompareRejectsSketchOnlyRecords: sketch records load fine but cannot
// feed bootstrap/rank comparisons — the CLI must say so instead of
// panicking on an empty sample.
func TestCompareRejectsSketchOnlyRecords(t *testing.T) {
	dir := t.TempDir()
	sketchPath := filepath.Join(dir, "sketch.json")
	benchPath := filepath.Join(dir, "bench.json")
	if code, _, errOut := run(t, "scale",
		"-provider", "google", "-n", "2000", "-shards", "2", "-iat", "20ms",
		"-save", sketchPath); code != 0 {
		t.Fatalf("scale failed: %s", errOut)
	}
	if code, _, errOut := run(t, "bench",
		"-provider", "google", "-samples", "100", "-save", benchPath); code != 0 {
		t.Fatalf("bench failed: %s", errOut)
	}
	code, _, errOut := run(t, "compare", sketchPath, benchPath)
	if code == 0 || !strings.Contains(errOut, "sketch-only") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}
