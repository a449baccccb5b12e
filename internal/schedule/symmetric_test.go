package schedule

import (
	"math/rand"
	"testing"
)

// TestSymmetricConstantTimeRendezvous is the §3.2 headline: two agents
// with IDENTICAL sets meet within 6 slots — one traversal of the 010011
// pattern — regardless of wake offset, set, or universe size.
func TestSymmetricConstantTimeRendezvous(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 8, 64, 1024, 1 << 16} {
		for trial := 0; trial < 10; trial++ {
			k := 1 + rng.Intn(min(8, n))
			set := randomSetWith(rng, n, k, 1+rng.Intn(n))
			w, err := NewAsync(n, set)
			if err != nil {
				t.Fatal(err)
			}
			for _, delta := range []int{0, 1, 2, 3, 5, 6, 7, 11, 12, 13, 100, 12345} {
				got, ok := ttr(w, w, delta, 7)
				if !ok {
					t.Fatalf("n=%d set %v: symmetric rendezvous missed at offset %d", n, set, delta)
				}
				if got > 6 {
					t.Fatalf("n=%d set %v offset %d: TTR %d > 6", n, set, delta, got)
				}
			}
		}
	}
}

// TestSymmetricMeetsAtMinChannel checks the §3.2 mechanism: identical
// sets rendezvous specifically at min(S).
func TestSymmetricMeetsAtMinChannel(t *testing.T) {
	w, err := NewAsync(32, []int{9, 17, 4, 28})
	if err != nil {
		t.Fatal(err)
	}
	if w.MinChannel() != 4 {
		t.Fatalf("MinChannel = %d, want 4", w.MinChannel())
	}
	for delta := 0; delta < 48; delta++ {
		met := false
		for s := 0; s < 7 && !met; s++ {
			if w.Channel(s+delta) == w.Channel(s) && w.Channel(s) == 4 {
				met = true
			}
		}
		if !met {
			t.Fatalf("offset %d: no (min,min) meeting within 6 slots", delta)
		}
	}
}

// TestSymmetricPreservesAsymmetricGuarantee verifies the ≤12× blowup:
// wrapped schedules of overlapping-but-different sets still meet within
// 12·(inner bound) + 2 blocks.
func TestSymmetricPreservesAsymmetricGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n = 64
	for trial := 0; trial < 30; trial++ {
		shared := 1 + rng.Intn(n)
		a := randomSetWith(rng, n, 1+rng.Intn(6), shared)
		b := randomSetWith(rng, n, 1+rng.Intn(6), shared)
		wa, err := NewAsync(n, a)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := NewAsync(n, b)
		if err != nil {
			t.Fatal(err)
		}
		inner := wa.Inner().(*General)
		bound := SymmetricBlockLen*inner.RendezvousBound(len(b)) + 2*SymmetricBlockLen
		delta := rng.Intn(wa.Period())
		if _, ok := ttr(wa, wb, delta, bound); !ok {
			t.Fatalf("sets %v/%v offset %d: no rendezvous within %d slots", a, b, delta, bound)
		}
	}
}

// TestSymmetricExhaustiveTinyUniverse sweeps every subset pair and every
// offset for n = 3 under the wrapper, mirroring the Theorem-3 exhaustive
// test but through §3.2.
func TestSymmetricExhaustiveTinyUniverse(t *testing.T) {
	const n = 3
	subsets := subsetsOf(n)
	wrapped := make([]*Symmetric, len(subsets))
	for i, s := range subsets {
		w, err := NewAsync(n, s)
		if err != nil {
			t.Fatal(err)
		}
		wrapped[i] = w
	}
	for i, a := range subsets {
		for j, b := range subsets {
			if !intersects(a, b) {
				continue
			}
			inner := wrapped[i].Inner().(*General)
			bound := SymmetricBlockLen*inner.RendezvousBound(len(b)) + 2*SymmetricBlockLen
			for delta := 0; delta < wrapped[i].Period(); delta += 5 {
				if _, ok := ttr(wrapped[i], wrapped[j], delta, bound); !ok {
					t.Fatalf("sets %v/%v: no rendezvous at offset %d", a, b, delta)
				}
			}
		}
	}
}

func TestSymmetricStructure(t *testing.T) {
	inner := NewConstant(5)
	w := NewSymmetric(inner)
	if w.Period() != SymmetricBlockLen {
		t.Errorf("Period = %d", w.Period())
	}
	// Pattern for c0 = c1 = 5 is constant 5.
	for s := 0; s < 24; s++ {
		if w.Channel(s) != 5 {
			t.Fatalf("Channel(%d) = %d", s, w.Channel(s))
		}
	}
	cyc, err := NewCyclic([]int{2, 9})
	if err != nil {
		t.Fatal(err)
	}
	w = NewSymmetric(cyc)
	// Inner slot 0 calls for channel 2 → block (2,2,2,2,2,2)×2 with c0=2;
	// inner slot 1 calls for 9 → block (2,9,2,2,9,9)×2.
	want := []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 9, 2, 2, 9, 9, 2, 9, 2, 2, 9, 9}
	for s, c := range want {
		if got := w.Channel(s); got != c {
			t.Fatalf("Channel(%d) = %d, want %d", s, got, c)
		}
	}
}

// TestSymmetricChannelBlockMatchesChannel pins the copy-based block
// expansion against the per-slot definition: every start residue mod
// 12 (so dst opens at every position of a block), every length 0–40
// (so it closes at every position too, within one or a few blocks),
// and lengths past 384 slots, where the expansion crosses its 32-slot
// inner buffer and refills it mid-call.
func TestSymmetricChannelBlockMatchesChannel(t *testing.T) {
	inner, err := NewGeneral(64, []int{3, 9, 17, 40, 58})
	if err != nil {
		t.Fatal(err)
	}
	w := NewSymmetric(inner)
	lengths := []int{383, 384, 385, 395, 396, 397, 768, 1000}
	for l := 0; l <= 40; l++ {
		lengths = append(lengths, l)
	}
	for _, base := range []int{0, 12 * 1009} {
		for r := 0; r < SymmetricBlockLen; r++ {
			start := base + r
			for _, l := range lengths {
				dst := make([]int, l)
				w.ChannelBlock(dst, start)
				for i, got := range dst {
					if want := w.Channel(start + i); got != want {
						t.Fatalf("start=%d len=%d: slot %d = %d, Channel says %d", start, l, start+i, got, want)
					}
				}
			}
		}
	}
}
