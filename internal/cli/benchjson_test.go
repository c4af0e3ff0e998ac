package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestBenchJSONHeapField pins the heap field and the exact key set of every
// -bench-json emitter. The heap value is runtime.MemStats.HeapSys read once
// at exit: heap memory obtained from the OS, not a peak of live bytes, so
// the field is named heap_sys_bytes and the misleading peak_heap_bytes must
// not come back. The key sets are the artifact schema CI uploads as
// BENCH_PR8/9/10.json.
func TestBenchJSONHeapField(t *testing.T) {
	cases := map[string]struct {
		args []string
		keys []string
	}{
		"cost": {
			[]string{"cost", "-provider", "aws", "-tenants", "8", "-duration", "10s", "-shards", "2", "-policies", "keepalive-1m"},
			[]string{"tenants", "policies", "plans", "invocations", "wall_seconds", "invocations_per_sec", "heap_sys_bytes", "heap_alloc_bytes"},
		},
		"tenants": {
			[]string{"tenants", "-provider", "aws", "-tenants", "8", "-duration", "10s", "-shards", "2", "-keepalives", "1m"},
			[]string{"tenants", "policies", "invocations", "wall_seconds", "tenants_per_sec", "invocations_per_sec", "heap_sys_bytes", "heap_alloc_bytes"},
		},
		"workflow": {
			[]string{"workflow", "-id", "chain-2", "-n", "8", "-shards", "2"},
			[]string{"topology", "workflows", "nodes", "edges", "invocations", "wall_seconds", "workflows_per_sec", "invocations_per_sec", "heap_sys_bytes", "heap_alloc_bytes"},
		},
	}
	for name, tc := range cases {
		name, tc := name, tc
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bench.json")
			code, _, errOut := run(t, append(tc.args, "-bench-json", path)...)
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
			got := make([]string, 0, len(fields))
			for k := range fields {
				got = append(got, k)
			}
			want := append([]string(nil), tc.keys...)
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("bench JSON keys = %v, want %v:\n%s", got, want, raw)
			}
		})
	}
}
