package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pbuf encodes just enough protobuf to build synthetic pprof profiles.
type pbuf struct{ b []byte }

func (p *pbuf) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pbuf) uint(num int, x uint64) {
	p.varint(uint64(num)<<3 | 0)
	p.varint(x)
}

func (p *pbuf) bytes(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) packed(num int, xs ...uint64) {
	var q pbuf
	for _, x := range xs {
		q.varint(x)
	}
	p.bytes(num, q.b)
}

// synthSample is one synthetic profile sample: its locations innermost
// first, each a group of function names (several names make an inlined
// group, innermost first), and its CPU time in nanoseconds.
type synthSample struct {
	locs  [][]string
	value uint64
}

// synthProfile builds a gzipped CPU profile from synthetic samples; files
// gives the source file of any function that needs one.
func synthProfile(t *testing.T, files map[string]string, samples []synthSample) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := map[string]uint64{}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strs = append(strs, s)
		strIdx[s] = uint64(len(strs) - 1)
		return strIdx[s]
	}
	var prof pbuf
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var v pbuf
		v.uint(1, vt[0])
		v.uint(2, vt[1])
		prof.bytes(1, v.b)
	}
	funcIDs := map[string]uint64{}
	var funcs, locs pbuf
	nextLoc := uint64(1)
	for _, s := range samples {
		var locIDs []uint64
		for _, group := range s.locs {
			var loc pbuf
			loc.uint(1, nextLoc)
			for _, fn := range group {
				id, ok := funcIDs[fn]
				if !ok {
					id = uint64(len(funcIDs) + 1)
					funcIDs[fn] = id
					var f pbuf
					f.uint(1, id)
					f.uint(2, intern(fn))
					f.uint(4, intern(files[fn]))
					funcs.bytes(5, f.b)
				}
				var line pbuf
				line.uint(1, id)
				line.uint(2, 10)
				loc.bytes(4, line.b)
			}
			locs.bytes(4, loc.b)
			locIDs = append(locIDs, nextLoc)
			nextLoc++
		}
		var sm pbuf
		sm.packed(1, locIDs...)
		sm.packed(2, 1, s.value)
		prof.bytes(2, sm.b)
	}
	prof.b = append(prof.b, locs.b...)
	prof.b = append(prof.b, funcs.b...)
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const mod = "github.com/stellar-repro/stellar/internal/"

func TestLayerAttribution(t *testing.T) {
	files := map[string]string{
		mod + "des.(*Engine).siftDown": "/src/internal/des/engine.go",
		mod + "des.(*Engine).pop":      "/src/internal/des/engine.go",
		mod + "des.(*Engine).Run":      "/src/internal/des/engine.go",
		mod + "des.(*Proc).Sleep":      "/src/internal/des/proc.go",
	}
	samples := []synthSample{
		// An inlined cloud frame inside an experiments closure: the
		// innermost module frame, though inlined, decides.
		{[][]string{{"runtime.memmove"}, {mod + "cloud.(*warmCall).route", mod + "experiments.runScaleShard.func4"}}, 10},
		// A runtime callee of a nested package counts for its layer.
		{[][]string{{"runtime.mallocgc"}, {mod + "stats/sketch.(*Sketch).AddN"}, {mod + "cloud.(*Cloud).record"}}, 5},
		// des queue: heap work, siftDown inlined into pop, under Run.
		{[][]string{{mod + "des.(*Engine).siftDown", mod + "des.(*Engine).pop"}, {mod + "des.(*Engine).Run"}}, 20},
		// des proc: a frame in proc.go.
		{[][]string{{"runtime.gopark"}, {mod + "des.(*Proc).Sleep"}, {mod + "cloud.(*Cloud).Invoke"}}, 8},
		// des proc: a goroutine hand-off issued from the dispatch loop.
		{[][]string{{"runtime.chansend1"}, {mod + "des.(*Engine).Run"}}, 7},
		// Runtime-only stacks: collection, scheduling, networking.
		{[][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}}, 6},
		{[][]string{{"runtime.futex"}, {"runtime.findRunnable"}, {"runtime.schedule"}, {"runtime.park_m"}, {"runtime.mcall"}}, 4},
		{[][]string{{"internal/runtime/syscall.Syscall6"}, {"internal/poll.(*FD).Read"}, {"net/http.(*conn).serve"}}, 3},
		// Unattributed: a simulator package without a layer of its own, the
		// benchmark itself, and runtime work of no known kind.
		{[][]string{{mod + "faults.(*Injector).Drop"}}, 2},
		{[][]string{{"main.measureCall"}}, 1},
		{[][]string{{"runtime.memclrNoHeapPointers"}}, 1},
	}
	got, err := parseProfile(synthProfile(t, files, samples))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("parsed %d samples, want %d", len(got), len(samples))
	}
	if f := got[0].frames; len(f) != 3 || f[1].fn != mod+"cloud.(*warmCall).route" || f[2].fn != mod+"experiments.runScaleShard.func4" {
		t.Fatalf("inlined frames not innermost-first: %+v", f)
	}
	if got[2].frames[0].file != "/src/internal/des/engine.go" {
		t.Fatalf("file names lost: %+v", got[2].frames[0])
	}
	shares, err := layerShares(got)
	if err != nil {
		t.Fatal(err)
	}
	const total = 67.0
	want := map[string]float64{
		"cloud.cpu_pct":    10,
		"stats.cpu_pct":    5,
		cpuDESQueue:        20,
		cpuDESProc:         15,
		cpuGC:              6,
		cpuSched:           4,
		cpuNet:             3,
		cpuUnattributed:    4,
		"dist.cpu_pct":     0,
		"stress.cpu_pct":   0,
		"workflow.cpu_pct": 0,
	}
	for name, w := range want {
		if g := shares[name]; math.Abs(g-100*w/total) > 1e-9 {
			t.Errorf("%s = %.4f%%, want %.4f%%", name, g, 100*w/total)
		}
	}
	sum := 0.0
	for _, name := range cpuMetrics() {
		v, ok := shares[name]
		if !ok {
			t.Errorf("share %s missing", name)
		}
		sum += v
	}
	if len(shares) != len(cpuMetrics()) || math.Abs(sum-100) > 1e-9 {
		t.Errorf("%d shares summing to %v%%, want %d summing to 100%%", len(shares), sum, len(cpuMetrics()))
	}
}

func TestLayerSharesEmptyProfile(t *testing.T) {
	if _, err := layerShares(nil); err == nil {
		t.Fatal("no error for a profile without samples")
	}
}

func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("profiler took no samples")
	}
	for _, s := range samples {
		if len(s.frames) == 0 || s.value <= 0 {
			t.Fatalf("sample without frames or CPU time: %+v", s)
		}
	}
	if _, err := layerShares(samples); err != nil {
		t.Fatal(err)
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	var p pbuf
	p.bytes(2, []byte{0x0a, 0x05, 0x01}) // sample whose location list overruns
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p.b)
	zw.Close()
	if _, err := parseProfile(buf.Bytes()); err == nil {
		t.Fatal("no error for a truncated profile")
	}
}
