package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchJSONHeapField pins the heap field of every -bench-json emitter.
// The value is runtime.MemStats.HeapSys read once at exit: heap memory
// obtained from the OS, not a peak of live bytes, so the field is named
// heap_sys_bytes and the misleading peak_heap_bytes must not come back.
func TestBenchJSONHeapField(t *testing.T) {
	cases := map[string][]string{
		"cost":     {"cost", "-provider", "aws", "-tenants", "8", "-duration", "10s", "-shards", "2", "-policies", "keepalive-1m"},
		"tenants":  {"tenants", "-provider", "aws", "-tenants", "8", "-duration", "10s", "-shards", "2", "-keepalives", "1m"},
		"workflow": {"workflow", "-id", "chain-2", "-n", "8", "-shards", "2"},
	}
	for name, args := range cases {
		name, args := name, args
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bench.json")
			code, _, errOut := run(t, append(args, "-bench-json", path)...)
			if code != 0 {
				t.Fatalf("code=%d err=%q", code, errOut)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]any
			if err := json.Unmarshal(raw, &fields); err != nil {
				t.Fatal(err)
			}
			if v, ok := fields["heap_sys_bytes"].(float64); !ok || v <= 0 {
				t.Errorf("heap_sys_bytes = %v, want a positive byte count:\n%s", fields["heap_sys_bytes"], raw)
			}
			if _, ok := fields["peak_heap_bytes"]; ok {
				t.Errorf("bench JSON still carries peak_heap_bytes:\n%s", raw)
			}
		})
	}
}
