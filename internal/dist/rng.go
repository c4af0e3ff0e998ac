package dist

import "math/rand"

// Streams derives independent deterministic random streams from a root seed.
// Each named component of the simulation gets its own *rand.Rand so that
// adding a component (or reordering sampling) does not perturb the draws seen
// by the others.
type Streams struct {
	seed int64
}

// NewStreams returns a stream factory rooted at seed.
func NewStreams(seed int64) *Streams { return &Streams{seed: seed} }

// Stream returns a deterministic RNG for the given component name. Calling
// Stream twice with the same name yields identically seeded, independent
// generators. The stream is seeded with the root seed XOR the FNV-1a hash
// of the name, and draws exactly what math/rand's default source would.
func (s *Streams) Stream(name string) *rand.Rand {
	return s.PrefixedStream("", name)
}

// PrefixedStream returns Stream(prefix + name) without building the
// concatenated name: FNV-1a consumes bytes in order, so hashing the parts
// in sequence equals hashing their concatenation.
func (s *Streams) PrefixedStream(prefix, name string) *rand.Rand {
	h := fnv1a(fnv1a(fnvOffset, prefix), name)
	return rand.New(NewSource(s.seed ^ int64(h)))
}

// 64-bit FNV-1a parameters (hash/fnv).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a folds str into the running 64-bit FNV-1a hash h.
func fnv1a(h uint64, str string) uint64 {
	for i := 0; i < len(str); i++ {
		h ^= uint64(str[i])
		h *= fnvPrime
	}
	return h
}

// Seed returns the root seed.
func (s *Streams) Seed() int64 { return s.seed }
