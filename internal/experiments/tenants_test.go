package experiments

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/dist"
)

func smallTenantsOpts() TenantsOptions {
	return TenantsOptions{
		Provider:   "aws",
		Tenants:    40,
		Duration:   5 * time.Minute,
		Shards:     4,
		Seed:       7,
		KeepAlives: []time.Duration{time.Minute, 10 * time.Minute},
	}
}

func TestTenantsRejectsEmptyPopulation(t *testing.T) {
	opts := smallTenantsOpts()
	opts.Tenants = 0
	if _, err := RunTenants(opts); err == nil {
		t.Fatal("zero tenants accepted")
	}
	opts = smallTenantsOpts()
	opts.Duration = 0
	if _, err := RunTenants(opts); err == nil {
		t.Fatal("zero duration accepted")
	}
	opts = smallTenantsOpts()
	opts.KeepAlives = []time.Duration{0}
	if _, err := RunTenants(opts); err == nil {
		t.Fatal("zero keep-alive accepted")
	}
	// An out-of-range sketch accuracy is an error, not a shard panic.
	for _, alpha := range []float64{5, -0.5, 1e-6, math.NaN()} {
		opts = smallTenantsOpts()
		opts.Alpha = alpha
		if _, err := RunTenants(opts); err == nil {
			t.Fatalf("alpha %v accepted", alpha)
		}
	}
}

// TestTenantsSingleTenantMatchesDirectShard: the full sweep driver with one
// tenant and one shard reduces exactly to one direct shard replay — the
// merge layer adds nothing.
func TestTenantsSingleTenantMatchesDirectShard(t *testing.T) {
	opts := smallTenantsOpts()
	opts.Tenants = 1
	opts.Shards = 1
	opts.KeepAlives = []time.Duration{5 * time.Minute}
	res, err := RunTenants(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(res.Points))
	}
	p := opts.population()
	direct, err := p.runShard(p.synthesize(), CostPolicy{KeepAlive: 5 * time.Minute}, 0, dist.ShardSeed(p.Seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	pt, d := res.Points[0], direct.point
	if pt.Invocations != d.Invocations || pt.ColdServed != d.ColdServed ||
		pt.WarmServed != d.WarmServed || pt.Errors != d.Errors || pt.Expirations != d.Expirations {
		t.Fatalf("sweep %+v != direct shard %+v", pt, d)
	}
	if pt.InstanceSeconds != d.InstanceSeconds {
		t.Fatalf("instance-seconds %v != %v", pt.InstanceSeconds, d.InstanceSeconds)
	}
	if pt.VirtualTime != d.VirtualTime {
		t.Fatalf("virtual time %v != %v", pt.VirtualTime, d.VirtualTime)
	}
	if d.sketch.Count() == 0 || pt.Latency != d.sketch.Summarize() {
		t.Fatalf("latency %+v != direct %+v", pt.Latency, d.sketch.Summarize())
	}
}

// TestTenantsMatchesCostKeepAlive: the tenants sweep is the keep-alive
// projection of the cost replay, so at every keep-alive k, exact or on the
// timer wheel, each TenantsPolicyPoint field equals the matching field of
// cost's keepalive-<k> point.
func TestTenantsMatchesCostKeepAlive(t *testing.T) {
	for _, slack := range []time.Duration{0, 500 * time.Millisecond} {
		topts := smallTenantsOpts()
		topts.SlackTick = slack
		tres, err := RunTenants(topts)
		if err != nil {
			t.Fatal(err)
		}
		copts := CostOptions{
			Provider:  topts.Provider,
			Tenants:   topts.Tenants,
			Duration:  topts.Duration,
			Shards:    topts.Shards,
			Seed:      topts.Seed,
			SlackTick: slack,
		}
		for _, ka := range topts.KeepAlives {
			copts.Policies = append(copts.Policies, CostPolicy{Name: "keepalive-" + ka.String(), KeepAlive: ka})
		}
		cres, err := RunCost(copts)
		if err != nil {
			t.Fatal(err)
		}
		if len(tres.Points) != len(topts.KeepAlives) || len(cres.Points) != len(topts.KeepAlives) {
			t.Fatalf("slack %v: %d tenants points, %d cost points", slack, len(tres.Points), len(cres.Points))
		}
		for i, tp := range tres.Points {
			cp := cres.Points[i]
			if tp.Invocations == 0 {
				t.Fatalf("slack %v, keepalive %v: no invocations", slack, tp.KeepAlive)
			}
			if tp.Invocations != cp.Invocations || tp.ColdServed != cp.ColdServed ||
				tp.WarmServed != cp.WarmServed || tp.Errors != cp.Errors ||
				tp.Expirations != cp.Expirations || tp.ColdRate != cp.ColdRate ||
				tp.InstanceSeconds != cp.InstanceSeconds || tp.Latency != cp.Latency ||
				tp.VirtualTime != cp.VirtualTime {
				t.Errorf("slack %v, keepalive %v: tenants point %+v != cost point %+v",
					slack, tp.KeepAlive, tp, cp)
			}
		}
	}
}

// TestTenantsWorkerCountInvariance: the sweep is byte-identical at any
// Workers setting (index-ordered deterministic merge).
func TestTenantsWorkerCountInvariance(t *testing.T) {
	render := func(workers int) []byte {
		opts := smallTenantsOpts()
		opts.Workers = workers
		opts.Top = 3
		res, err := RunTenants(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		WriteTenantsReport(&buf, res)
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("tenants sweep differs between Workers=1 and Workers=8")
	}
}

// TestTenantsSlackTickKeepsFrontierShape: replaying on the timer wheel
// must not change what was served — only expiry instants shift by at most
// one tick, which the drain absorbs.
func TestTenantsSlackTickKeepsFrontierShape(t *testing.T) {
	opts := smallTenantsOpts()
	exact, err := RunTenants(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.SlackTick = 500 * time.Millisecond
	slacked, err := RunTenants(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact.Points {
		e, s := exact.Points[i], slacked.Points[i]
		if e.Invocations != s.Invocations || e.ColdServed != s.ColdServed || e.Errors != s.Errors {
			t.Fatalf("keepalive %v: slack changed serves: exact inv=%d cold=%d, slacked inv=%d cold=%d",
				e.KeepAlive, e.Invocations, e.ColdServed, s.Invocations, s.ColdServed)
		}
	}
}

// TestTenantsParetoMarking: the frontier marking is exactly the
// non-dominated set.
func TestTenantsParetoMarking(t *testing.T) {
	points := [][2]float64{
		{0.10, 100}, // pareto
		{0.05, 200}, // pareto
		{0.05, 300}, // dominated by [1]
		{0.20, 100}, // dominated by [0]
		{0.02, 400}, // pareto
		{0.02, 400}, // pareto: a tie dominates neither copy
	}
	front := markPareto(len(points), func(i int) (float64, float64) { return points[i][0], points[i][1] })
	want := []bool{true, true, false, false, true, true}
	for i := range points {
		if front[i] != want[i] {
			t.Errorf("point %d pareto = %v, want %v", i, front[i], want[i])
		}
	}
}

// TestTenantsThousandTenantsBoundedHeap is the scale gate: a 1000-tenant
// replay must fit in a bounded heap — pooled tenant records plus one
// bounded sketch per tenant, no O(invocations) retention anywhere.
func TestTenantsThousandTenantsBoundedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("scale gate skipped in -short")
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	opts := TenantsOptions{
		Provider:   "aws",
		Tenants:    1000,
		Duration:   10 * time.Minute,
		Shards:     8,
		Seed:       11,
		KeepAlives: []time.Duration{5 * time.Minute},
	}
	res, err := RunTenants(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].Invocations == 0 {
		t.Fatalf("bad result: %+v", res.Points)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// Budget: ~20KB/tenant of durable state (sketch + records) plus slack
	// for the runtime. The replay itself issues tens of thousands of
	// invocations; any O(invocations) retention blows straight past this.
	const budget = 25 << 20
	if grown > budget {
		t.Fatalf("heap grew %d bytes over the replay, budget %d", grown, budget)
	}
	t.Logf("replayed %d invocations across %d tenants; retained heap growth %.1f MB",
		res.Points[0].Invocations, opts.Tenants, float64(grown)/(1<<20))
}
