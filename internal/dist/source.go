package dist

// Source is math/rand's additive lagged-Fibonacci generator (Mitchell and
// Reeds; the source behind rand.NewSource), reimplemented so that seeding
// is cheap. Its output is bit-identical to rand.NewSource for every seed:
// the same state vector, the same tap/feed walk, the same seeding table.
//
// math/rand seeds its 607-word state from a serial Lehmer chain,
// x(k+1) = 48271·x(k) mod (2³¹−1), advancing it 1,841 times, one dependent
// division after another. The chain's k-th term is simply seed·48271^k mod
// (2³¹−1), so Seed computes each of the 1,821 terms it keeps independently
// from a precomputed power table, with a Mersenne-prime reduction instead
// of a division. The multiplications no longer wait on each other, which
// makes seeding about three times faster. That matters where streams are
// created per entity: a population replay seeds two per tenant per policy.
type Source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime

	lehmerA = 48271
	// lehmerSkip is the number of chain terms math/rand discards before
	// the first one it keeps.
	lehmerSkip = 20
)

// lehmerPow[k] is 48271^(lehmerSkip+1+k) mod (2³¹−1): the multiplier that
// takes the seed to the k-th chain term Seed keeps.
var lehmerPow = func() (pow [3 * rngLen]uint64) {
	x := uint64(1)
	for i := 0; i <= lehmerSkip; i++ {
		x = mulMod31(x, lehmerA)
	}
	for k := range pow {
		pow[k] = x
		x = mulMod31(x, lehmerA)
	}
	return pow
}()

// mulMod31 returns a·b mod (2³¹−1) for a, b < 2³¹−1 without dividing:
// since 2³¹ ≡ 1, folding the high bits onto the low bits preserves the
// residue. The first fold takes the product below 2³²−1, the second to at
// most 2³¹−1, and that bound itself would mean a·b ≡ 0 with a·b ≠ 0, which
// a prime modulus rules out, so the result needs no final correction.
func mulMod31(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	return p&int32max + p>>31
}

// NewSource returns a Source seeded like rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		pow := lehmerPow[3*i : 3*i+3 : 3*i+3]
		u := int64(mulMod31(x, pow[0])) << 40
		u ^= int64(mulMod31(x, pow[1])) << 20
		u ^= int64(mulMod31(x, pow[2]))
		s.vec[i] = u ^ rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
