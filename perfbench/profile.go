package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// frame is one function in a call stack.
type frame struct {
	fn, file string
}

// stackSample is one CPU-profile sample: its stack, innermost frame
// first (inlined callees before their callers), and its CPU time in
// nanoseconds.
type stackSample struct {
	frames []frame
	value  int64
}

// parseProfile decodes a gzipped pprof protobuf profile, as written by
// runtime/pprof, into stack samples. It reads only the fields the layer
// attribution needs: samples, locations with their (possibly inlined)
// lines, functions and the string table.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type fnRec struct{ name, file int64 }
	var (
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs    = map[uint64]fnRec{}
		strs     []string
	)
	err = walkFields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					var vs []uint64
					if err := appendUints(&vs, wire, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var f fnRec
			err := walkFields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		// CPU profiles carry [samples/count, cpu/nanoseconds]; weigh by the
		// last value type.
		ss := stackSample{value: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				f := funcs[fid]
				ss.frames = append(ss.frames, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for each field of a protobuf message: varint fields
// pass their value in v, length-delimited ones their bytes in b.
func walkFields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "github.com/stellar-repro/stellar/internal/"

// Layer CPU-share metric names.
const (
	cpuDESQueue     = "des.queue_cpu_pct"
	cpuDESProc      = "des.proc_cpu_pct"
	cpuGC           = "runtime.gc_cpu_pct"
	cpuSched        = "runtime.sched_cpu_pct"
	cpuNet          = "runtime.net_cpu_pct"
	cpuUnattributed = "unattributed.cpu_pct"
)

// moduleLayers are the simulator packages with a CPU share of their own;
// des is split into queue and proc. Samples in other simulator packages
// count as unattributed.
var moduleLayers = []string{
	"cloud", "dist", "stats", "runner", "azuretrace", "blobstore", "econ",
	"workflow", "trace", "httpfaas", "stress", "experiments",
}

// cpuMetrics lists every CPU-share metric name.
func cpuMetrics() []string {
	names := []string{cpuDESQueue, cpuDESProc}
	for _, l := range moduleLayers {
		names = append(names, l+".cpu_pct")
	}
	return append(names, cpuGC, cpuSched, cpuNet, cpuUnattributed)
}

// classify names the CPU-share metric a sample counts towards: the layer of
// its innermost simulator frame, or for a stack with none, the runtime
// activity it shows (garbage collection, scheduling, networking).
func classify(frames []frame) string {
	for i, f := range frames {
		rest, ok := strings.CutPrefix(f.fn, modulePrefix)
		if !ok {
			continue
		}
		layer := rest
		if j := strings.IndexAny(layer, "/."); j >= 0 {
			layer = layer[:j]
		}
		if layer == "des" {
			return classifyDES(f, frames[:i])
		}
		for _, l := range moduleLayers {
			if l == layer {
				return l + ".cpu_pct"
			}
		}
		return cpuUnattributed
	}
	switch {
	case anyFrame(frames, gcFuncs):
		return cpuGC
	case anyFrame(frames, netFuncs):
		return cpuNet
	case anyFrame(frames, schedFuncs):
		return cpuSched
	}
	return cpuUnattributed
}

// classifyDES splits des samples between the event queue (heap, wheel,
// and the dispatch loop popping and firing events) and process switching
// (Spawn, park, resume, the sync primitives, and the runtime channel and
// scheduler work of a goroutine hand-off, even when the dispatch loop issues
// it).
func classifyDES(f frame, callees []frame) string {
	switch path.Base(f.file) {
	case "proc.go", "sync.go":
		return cpuDESProc
	}
	if anyFrame(callees, procSwitchFuncs) {
		return cpuDESProc
	}
	return cpuDESQueue
}

func anyFrame(frames []frame, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f.fn, p) {
				return true
			}
		}
	}
	return false
}

var (
	gcFuncs = []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.scanstack", "runtime.scanblock", "runtime.greyobject",
		"runtime.sweepone", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
		"runtime.(*mspan).sweep", "runtime.(*sweepLocked)", "runtime.wbBuf", "runtime.bulkBarrier",
	}
	netFuncs = []string{
		"net.", "net/", "internal/poll.", "runtime.netpoll", "syscall.", "internal/runtime/syscall.",
		"runtime/internal/syscall.", "bufio.",
	}
	schedFuncs = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.park_m",
		"runtime.goschedImpl", "runtime.gopark", "runtime.goready", "runtime.ready",
		"runtime.stealWork", "runtime.runqgrab", "runtime.futex", "runtime.notesleep",
		"runtime.notewakeup", "runtime.wakep", "runtime.startm", "runtime.stopm",
		"runtime.mPark", "runtime.exitsyscall", "runtime.usleep", "runtime.osyield",
		"runtime.sysmon", "runtime.goexit0", "runtime.newproc", "runtime.execute",
		"runtime.checkTimers", "runtime.runtimer",
	}
	procSwitchFuncs = []string{
		"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.gopark",
		"runtime.goready", "runtime.mcall", "runtime.park_m", "runtime.schedule",
	}
)

// layerShares splits a profile's CPU time across the CPU-share metrics, in
// percent. Every metric is present and the shares sum to 100.
func layerShares(samples []stackSample) (map[string]float64, error) {
	shares := map[string]float64{}
	for _, name := range cpuMetrics() {
		shares[name] = 0
	}
	var total float64
	for _, s := range samples {
		shares[classify(s.frames)] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, errors.New("profile: no CPU samples")
	}
	for k, v := range shares {
		shares[k] = 100 * v / total
	}
	return shares, nil
}
