package schedule

import (
	"fmt"
	"sync"

	"rendezvous/internal/bitstring"
	"rendezvous/internal/pairsched"
	"rendezvous/internal/primes"
	"rendezvous/internal/ramsey"
)

// General is the Theorem-3 schedule: the paper's primary contribution.
//
// For a channel set A = {a_0 < … < a_{k-1}} ⊆ [n] it picks the two
// smallest distinct primes p < q in [k, 3k] and runs a sequence of
// epochs. Epoch r plays the Theorem-1 asynchronous word for the channel
// pair {a_{r mod p}, a_{r mod q}} (an index ≥ k falls back to a_0; equal
// channels degenerate to a constant epoch). To survive arbitrary wake
// offsets each epoch repeats its word twice, so an epoch lasts 2L slots
// where L = pairsched.WordLen(n).
//
// For any two overlapping sets A, B there is a "helpful" pair of distinct
// primes (p from A's pair, q from B's); the Chinese Remainder Theorem
// yields an epoch index r ≤ p·q at which A's pair and B's pair both
// contain a common channel while their doubled epochs overlap in at
// least L slots, and the ◇ conditions of the pair words finish the job.
// Total: O(|A|·|B|·log log n) slots.
type General struct {
	n        int
	channels []int // sorted ascending
	p, q     int
	wordLen  int
	words    []bitstring.String // per 2-Ramsey color, precomputed
}

var _ Schedule = (*General)(nil)
var _ HopMasker = (*General)(nil)

// NewGeneral builds the Theorem-3 schedule for the given channel set
// within universe [n].
func NewGeneral(n int, channels []int) (*General, error) {
	sorted, err := ValidateChannels(n, channels)
	if err != nil {
		return nil, err
	}
	k := len(sorted)
	p, q, err := primes.TwoIn(k)
	if err != nil {
		return nil, fmt.Errorf("schedule: selecting primes for k=%d: %w", k, err)
	}
	words, err := wordPalette(n)
	if err != nil {
		return nil, err
	}
	return &General{
		n:        n,
		channels: sorted,
		p:        p,
		q:        q,
		wordLen:  pairsched.WordLen(n),
		words:    words,
	}, nil
}

// palCache caches the per-universe Ramsey word palette. The words are
// pure functions of (color, n) and immutable once built, so every
// General over the same universe shares one palette; rebuilding it per
// schedule dominated NewGeneral's construction cost in sweeps that
// measure many pairs over a handful of universes.
var palCache sync.Map // universe n -> []bitstring.String

// wordPalette returns the shared per-color word table for universe n.
func wordPalette(n int) ([]bitstring.String, error) {
	if v, ok := palCache.Load(n); ok {
		return v.([]bitstring.String), nil
	}
	words := make([]bitstring.String, ramsey.PaletteSize(n))
	for c := range words {
		w, err := pairsched.WordForColor(c, n)
		if err != nil {
			return nil, err
		}
		words[c] = w
	}
	v, _ := palCache.LoadOrStore(n, words)
	return v.([]bitstring.String), nil
}

// EpochLen returns the duration of one (doubled) epoch in slots: 2L.
func (g *General) EpochLen() int { return 2 * g.wordLen }

// Primes returns the two epoch primes (p < q) chosen for this set.
func (g *General) Primes() (p, q int) { return g.p, g.q }

// Channel implements Schedule.
func (g *General) Channel(t int) int {
	CheckSlot(t)
	epoch := t / g.EpochLen()
	within := t % g.EpochLen() % g.wordLen
	lo, hi := g.epochPair(epoch)
	if lo == hi {
		return lo
	}
	color := ramsey.MustColor(lo, hi, g.n)
	if g.words[color].Bit(within) == 0 {
		return lo
	}
	return hi
}

// ChannelBlock implements BlockEvaluator by emitting whole (doubled)
// epochs at a time: the epoch pair and its Ramsey-word color are
// resolved once per epoch instead of once per slot, and the word bits
// are streamed across both word repetitions.
func (g *General) ChannelBlock(dst []int, start int) {
	CheckSlot(start)
	el := g.EpochLen()
	for filled := 0; filled < len(dst); {
		t := start + filled
		epoch := t / el
		n := min((epoch+1)*el-t, len(dst)-filled)
		seg := dst[filled : filled+n]
		lo, hi := g.epochPair(epoch)
		if lo == hi {
			for i := range seg {
				seg[i] = lo
			}
		} else {
			word := g.words[ramsey.MustColor(lo, hi, g.n)]
			within := t % el % g.wordLen
			for i := range seg {
				if word.Bit(within) == 0 {
					seg[i] = lo
				} else {
					seg[i] = hi
				}
				if within++; within == g.wordLen {
					within = 0
				}
			}
		}
		filled += n
	}
}

// HopMask implements HopMasker: the bits of both channels of every
// epoch pair the range touches, with no word lookup.
func (g *General) HopMask(start, n int) uint64 {
	CheckSlot(start)
	el := g.EpochLen()
	var m uint64
	for e := start / el; e <= (start+n-1)/el; e++ {
		lo, hi := g.epochPair(e)
		m |= 1<<(uint(lo)&63) | 1<<(uint(hi)&63)
	}
	return m
}

// epochPair returns the (sorted) channel pair scheduled in the given
// epoch.
func (g *General) epochPair(epoch int) (lo, hi int) {
	k := len(g.channels)
	i := epoch % g.p
	j := epoch % g.q
	if i >= k {
		i = 0
	}
	if j >= k {
		j = 0
	}
	a, b := g.channels[i], g.channels[j]
	if a > b {
		a, b = b, a
	}
	return a, b
}

// Period implements Schedule: the epoch pattern repeats every p·q epochs.
func (g *General) Period() int { return g.p * g.q * g.EpochLen() }

// Channels implements Schedule.
func (g *General) Channels() []int {
	out := make([]int, len(g.channels))
	copy(out, g.channels)
	return out
}

// Universe returns the universe size n the schedule was built for.
func (g *General) Universe() int { return g.n }

// RendezvousBound returns the worst-case asynchronous rendezvous bound,
// in slots, between this schedule and one built (with the same n) for a
// set of size otherK: epochs through one full CRT cycle of the largest
// helpful prime pair, plus two boundary epochs. Tests and the benchmark
// harness assert measured TTRs against this.
func (g *General) RendezvousBound(otherK int) int {
	_, qOther, err := primes.TwoIn(otherK)
	if err != nil {
		return 0
	}
	return (g.q*qOther + 2) * g.EpochLen()
}
