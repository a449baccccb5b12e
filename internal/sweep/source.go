package sweep

import "math/rand"

// math/rand's additive lagged Fibonacci generator: a 607-word register
// with a feedback tap 273 words back, seeded by a Lehmer LCG
// x[n+1] = 48271·x[n] mod (2³¹−1).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lcgMul   = 48271
	// lcgWarmup is the number of LCG steps math/rand discards before it
	// builds register word 0; word i then takes steps 21+3i … 23+3i.
	lcgWarmup = 20
	// builtWords is the size of Source's built-word bitset.
	builtWords = (rngLen + 63) / 64
)

// lcgPow[i][k] is 48271^(lcgWarmup+1+3i+k) mod (2³¹−1): the factor
// that jumps the seeding LCG from its seed straight to the k-th step of
// register word i.
var lcgPow = func() (p [rngLen][3]uint32) {
	x := uint64(1)
	for s := 0; s < lcgWarmup; s++ {
		x = x * lcgMul % int32max
	}
	for i := range p {
		for k := range p[i] {
			x = x * lcgMul % int32max
			p[i][k] = uint32(x)
		}
	}
	return p
}()

// Source is a rand.Source64 that emits exactly the stream
// rand.NewSource(seed) does, for every seed, but seeds in O(1).
// math/rand's Seed runs 1,841 LCG steps to fill all 607 register words
// up front; Source only records the seed and builds each word on first
// use by jumping the LCG ahead (x_j = seed·48271^j mod 2³¹−1, with the
// powers precomputed once). A derivation that draws a handful of
// values per item therefore reseeds one Source per item for the cost
// of clearing a 607-bit bitset, where rand.New(rand.NewSource(…))
// allocates a 4.9 KB register and pays the full seeding walk.
//
// Like math/rand's sources, a Source is not safe for concurrent use.
type Source struct {
	tap, feed int
	seed      uint64 // normalized LCG seed in [1, 2³¹−2]
	built     [builtWords]uint64
	vec       [rngLen]int64
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the state rand.NewSource(seed) starts in,
// including math/rand's normalization: the seed is reduced mod 2³¹−1
// and 0 stands for 89482311.
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
	s.seed = uint64(seed)
	s.built = [builtWords]uint64{}
}

// word returns register word i, building it from the seed first if no
// draw has touched it since the last Seed.
func (s *Source) word(i int) int64 {
	if s.built[i>>6]&(1<<(i&63)) == 0 {
		p := &lcgPow[i]
		x0 := int64(s.seed * uint64(p[0]) % int32max)
		x1 := int64(s.seed * uint64(p[1]) % int32max)
		x2 := int64(s.seed * uint64(p[2]) % int32max)
		s.vec[i] = x0<<40 ^ x1<<20 ^ x2 ^ rngCooked[i]
		s.built[i>>6] |= 1 << (i & 63)
	}
	return s.vec[i]
}

// Uint64 implements rand.Source64 with math/rand's feedback step.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }
