package proptest

import (
	"fmt"
	"math/rand"
	"sort"

	"rendezvous/internal/schedule"
)

// SchedCase is one generated single-schedule instance, the unit the
// ChannelBlock ≡ Channel and Compile(s) ≡ s oracles run over.
type SchedCase struct {
	Alg  string
	N    int
	Set  []int
	Seed int64
}

// String implements Case.
func (c SchedCase) String() string {
	return fmt.Sprintf("schedule alg=%s n=%d set=%s seed=%d", c.Alg, c.N, joinInts(c.Set), c.Seed)
}

// GenSchedCase draws a schedule instance from algs.
func GenSchedCase(rng *rand.Rand, algs []string) SchedCase {
	n := GenUniverse(rng)
	w := GenSetSize(rng, n)
	set := make([]int, 0, w)
	seen := map[int]bool{}
	for len(set) < w {
		ch := 1 + rng.Intn(n)
		if !seen[ch] {
			seen[ch] = true
			set = append(set, ch)
		}
	}
	return SchedCase{Alg: algs[rng.Intn(len(algs))], N: n, Set: sortedCopy(set), Seed: rng.Int63()}
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

// Build constructs the schedule.
func (c SchedCase) Build() (schedule.Schedule, error) {
	return BuildSchedule(c.Alg, c.N, c.Set, c.Seed)
}

// probeWindows yields (start, length) windows straddling the places
// implementations chunk their work: slot 0, word/epoch boundaries (via
// odd primes), the period boundary, and deep slots.
func probeWindows(rng *rand.Rand, period int) [][2]int {
	windows := [][2]int{
		{0, 1}, {0, 257}, {1, 64},
		{period - 1, 130}, {2*period - 3, 7},
	}
	for i := 0; i < 6; i++ {
		windows = append(windows, [2]int{rng.Intn(3*period + 1), 1 + rng.Intn(300)})
	}
	return windows
}

// CheckBlockEquiv is the ChannelBlock ≡ Channel oracle: FillBlock must
// reproduce per-slot evaluation over every probe window.
func CheckBlockEquiv(c SchedCase) error {
	s, err := c.Build()
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	return BlockEquivErr(s, c.Seed)
}

// BlockEquivErr probes ChannelBlock ≡ Channel on a concrete schedule
// (the workhorse behind CheckBlockEquiv, also pointed at deliberately
// sabotaged schedules by the shrinker self-test), and, for a
// schedule.HopMasker, that HopMask covers every channel of each probe
// window: the pairwise scan skips a window whose masks are disjoint, so
// a missing bit would hide a meeting.
func BlockEquivErr(s schedule.Schedule, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]int, 300)
	hm, masks := s.(schedule.HopMasker)
	for _, w := range probeWindows(rng, s.Period()) {
		start, l := w[0], min(w[1], len(buf))
		if start < 0 {
			continue
		}
		dst := buf[:l]
		for i := range dst {
			dst[i] = -1
		}
		schedule.FillBlock(s, dst, start)
		for i := range dst {
			if want := s.Channel(start + i); dst[i] != want {
				return fmt.Errorf("ChannelBlock(start=%d, len=%d)[%d] = %d, want Channel(%d) = %d",
					start, l, i, dst[i], start+i, want)
			}
		}
		if !masks {
			continue
		}
		m := hm.HopMask(start, l)
		for i, c := range dst {
			if m&(1<<(uint(c)&63)) == 0 {
				return fmt.Errorf("HopMask(start=%d, n=%d) = %#x misses channel %d, hopped at slot %d",
					start, l, m, c, start+i)
			}
		}
	}
	return nil
}

// CheckCompileEquiv is the Compile(s) ≡ s oracle: compiling must yield
// an evaluation-equivalent schedule, refuse eventually-periodic inputs,
// and preserve the period when it does materialize a table.
func CheckCompileEquiv(c SchedCase) error {
	s, err := c.Build()
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	compiled := schedule.CompileCap(s, 1<<16)
	if compiled == nil {
		return fmt.Errorf("Compile returned nil")
	}
	if _, isTable := compiled.(*schedule.Compiled); isTable {
		if schedule.IsEventuallyPeriodic(s) {
			return fmt.Errorf("Compile materialized a table for an eventually-periodic schedule")
		}
		if compiled.Period() != s.Period() {
			return fmt.Errorf("compiled period %d, want %d", compiled.Period(), s.Period())
		}
	}
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5ca1ab1e))
	p := s.Period()
	for i := 0; i < 40; i++ {
		t := rng.Intn(2*min(p, 1<<16) + 64)
		if got, want := compiled.Channel(t), s.Channel(t); got != want {
			return fmt.Errorf("compiled Channel(%d) = %d, want %d", t, got, want)
		}
	}
	return nil
}

// ShrinkSched reduces a failing schedule case: fewer channels, then a
// smaller universe.
func ShrinkSched(c SchedCase, fails func(SchedCase) bool) SchedCase {
	for improved := true; improved; {
		improved = false
		for i := 0; i < len(c.Set) && len(c.Set) > 1; i++ {
			cand := c
			cand.Set = append(append([]int(nil), c.Set[:i]...), c.Set[i+1:]...)
			if fails(cand) {
				c, improved = cand, true
				break
			}
		}
		if m := maxInt(c.Set); m < c.N {
			for _, n := range []int{m, (c.N + m) / 2} {
				if n >= c.N || n < 2 {
					continue
				}
				cand := c
				cand.N = n
				if fails(cand) {
					c, improved = cand, true
					break
				}
			}
		}
	}
	return c
}
