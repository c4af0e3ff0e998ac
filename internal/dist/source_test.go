package dist

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzSourceSeed is the bit-identity contract with math/rand: for any seed,
// including the ones Seed normalizes specially (0, negatives, multiples of
// the Lehmer modulus, MinInt64), the first 2,000 draws of every method the
// simulator's distributions use must equal rand.NewSource's.
func FuzzSourceSeed(f *testing.F) {
	for _, seed := range []int64{
		0, 1, -1, 42, 89482311, int32max, -int32max, 2 * int32max, int32max + 1,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		draws := []struct {
			name string
			draw func(r *rand.Rand) uint64
		}{
			{"Uint64", func(r *rand.Rand) uint64 { return r.Uint64() }},
			{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
			{"ExpFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.ExpFloat64()) }},
			{"NormFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) }},
		}
		for _, d := range draws {
			want, got := rand.New(rand.NewSource(seed)), rand.New(NewSource(seed))
			for i := 0; i < 2000; i++ {
				if w, g := d.draw(want), d.draw(got); w != g {
					t.Fatalf("seed %d: %s draw %d = %#x, math/rand gives %#x", seed, d.name, i, g, w)
				}
			}
		}
	})
}

// TestSourceReseed checks that Seed fully resets a used Source.
func TestSourceReseed(t *testing.T) {
	s := NewSource(1)
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	s.Seed(7)
	ref := rand.NewSource(7).(rand.Source64)
	for i := 0; i < 1000; i++ {
		if g, w := s.Uint64(), ref.Uint64(); g != w {
			t.Fatalf("draw %d after reseed = %#x, want %#x", i, g, w)
		}
	}
}

// TestStreamMatchesLegacyDerivation pins the stream seeding to its original
// definition, rand.NewSource(root ^ FNV-1a(name)): every golden fixture in
// the repository was produced that way.
func TestStreamMatchesLegacyDerivation(t *testing.T) {
	const offset, prime = 14695981039346656037, 1099511628211
	legacy := func(seed int64, name string) *rand.Rand {
		h := uint64(offset)
		for _, c := range []byte(name) {
			h = (h ^ uint64(c)) * prime
		}
		return rand.New(rand.NewSource(seed ^ int64(h)))
	}
	s := NewStreams(-3)
	for _, name := range []string{"", "aws/sched", "tenants/arr/fn-00042"} {
		a, b := s.Stream(name), legacy(-3, name)
		for i := 0; i < 100; i++ {
			if g, w := a.Int63(), b.Int63(); g != w {
				t.Fatalf("Stream(%q) draw %d = %d, want %d", name, i, g, w)
			}
		}
	}
}

// TestPrefixedStreamEqualsConcatenation: hashing the parts in sequence is
// hashing their concatenation, so PrefixedStream(p, n) is Stream(p+n).
func TestPrefixedStreamEqualsConcatenation(t *testing.T) {
	s := NewStreams(9001)
	for _, tc := range [][2]string{{"", ""}, {"tenants/arr/", "fn-7"}, {"", "x"}, {"x", ""}} {
		a, b := s.PrefixedStream(tc[0], tc[1]), s.Stream(tc[0]+tc[1])
		for i := 0; i < 100; i++ {
			if g, w := a.Uint64(), b.Uint64(); g != w {
				t.Fatalf("PrefixedStream(%q, %q) draw %d = %#x, want %#x", tc[0], tc[1], i, g, w)
			}
		}
	}
}

// TestPrefixedStreamAllocs: naming a stream allocates nothing; the only
// allocations are the generator and its Rand wrapper.
func TestPrefixedStreamAllocs(t *testing.T) {
	s := NewStreams(1)
	name := "fn-000123"
	if avg := testing.AllocsPerRun(100, func() { s.PrefixedStream("tenants/arr/", name) }); avg > 2 {
		t.Fatalf("PrefixedStream allocates %.1f times, want <= 2", avg)
	}
}

var streamSink *rand.Rand

// BenchmarkStreamSeed measures deriving one named per-tenant stream: the
// per-entity cost a population replay pays twice per tenant and policy.
func BenchmarkStreamSeed(b *testing.B) {
	s := NewStreams(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		streamSink = s.PrefixedStream("tenants/arr/", "fn-000123")
	}
}
