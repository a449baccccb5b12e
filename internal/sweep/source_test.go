package sweep

import (
	"math"
	"math/rand"
	"testing"
)

// sourceEdgeSeeds are the seeds math/rand's Seed normalizes specially:
// zero (replaced by 89482311), negatives (shifted into range), and
// multiples of 2³¹−1 (which reduce to zero).
var sourceEdgeSeeds = []int64{
	0, 1, -1, 89482311, -89482311,
	int32max, -int32max, 2 * int32max, -2 * int32max, int32max - 1, int32max + 1,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

// drawMix advances both generators through the same mix of Intn,
// Float64, Uint64 and Perm calls chosen by ops, returning a description
// of the first divergence.
func drawMix(t testing.TB, want, got *rand.Rand, ops []byte, draws int) {
	t.Helper()
	for d := 0; d < draws; d++ {
		op := byte(d)
		if len(ops) > 0 {
			op = ops[d%len(ops)]
		}
		switch op % 4 {
		case 0:
			n := 1 + int(op)*97
			if w, g := want.Intn(n), got.Intn(n); w != g {
				t.Fatalf("draw %d: Intn(%d) = %d, math/rand %d", d, n, g, w)
			}
		case 1:
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("draw %d: Float64 = %v, math/rand %v", d, g, w)
			}
		case 2:
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("draw %d: Uint64 = %d, math/rand %d", d, g, w)
			}
		case 3:
			n := int(op % 23)
			w, g := want.Perm(n), got.Perm(n)
			for i := range w {
				if w[i] != g[i] {
					t.Fatalf("draw %d: Perm(%d) = %v, math/rand %v", d, n, g, w)
				}
			}
		}
	}
}

// TestSourceMatchesMathRand pins the Source contract the goldens ride
// on: for every seed, the stream equals rand.NewSource's — over the
// edge seeds and 3,000 derived seeds, long enough (2,000 draws) to
// wrap the 607-word register several times, and again after reseeding
// one Source in place.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), sourceEdgeSeeds...)
	for i := 0; i < 3000; i++ {
		seeds = append(seeds, DeriveSeed(17, i))
	}
	src := NewSource(0)
	reused := rand.New(src)
	for i, seed := range seeds {
		draws := 40
		if i%50 == 0 {
			draws = 2000
		}
		drawMix(t, rand.New(rand.NewSource(seed)), rand.New(NewSource(seed)), nil, draws)
		reused.Seed(seed)
		drawMix(t, rand.New(rand.NewSource(seed)), reused, []byte{2}, draws)
	}
}

// FuzzSource: for any seed, draw count up to 2,000, and mix of Intn,
// Float64, Uint64 and Perm calls, Source equals rand.NewSource.
func FuzzSource(f *testing.F) {
	for _, seed := range sourceEdgeSeeds {
		f.Add(seed, uint16(2000), []byte{0, 1, 2, 3})
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, ops []byte) {
		drawMix(t, rand.New(rand.NewSource(seed)), rand.New(NewSource(seed)), ops, int(draws%2001))
	})
}

// TestMapRNGStreams: every MapRNG job sees exactly the math/rand stream
// of its derived seed, whatever worker reseeded the shared Source last.
func TestMapRNGStreams(t *testing.T) {
	for _, workers := range []int{1, 3} {
		r := Runner{Workers: workers, Seed: 9}
		got := MapRNG(r, 50, func(i int, rng *rand.Rand) [3]uint64 {
			return [3]uint64{rng.Uint64(), uint64(rng.Intn(1000)), rng.Uint64()}
		})
		for i, g := range got {
			want := rand.New(rand.NewSource(DeriveSeed(9, i)))
			if w := [3]uint64{want.Uint64(), uint64(want.Intn(1000)), want.Uint64()}; w != g {
				t.Fatalf("workers=%d job %d: %v, math/rand %v", workers, i, g, w)
			}
		}
	}
}

func BenchmarkSourceSeed(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += rand.New(rand.NewSource(int64(i))).Intn(100)
		}
	})
	b.Run("source", func(b *testing.B) {
		rng := rand.New(NewSource(0))
		for i := 0; i < b.N; i++ {
			rng.Seed(int64(i))
			sink += rng.Intn(100)
		}
	})
}

var sink int
