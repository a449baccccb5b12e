package simulator

import (
	"math/rand"

	"rendezvous/internal/schedule"
)

// TTRStats aggregates time-to-rendezvous measurements across a sweep of
// wake offsets.
type TTRStats struct {
	Samples  int
	Failures int // offsets with no rendezvous within the horizon
	Max      int
	Sum      int64
	WorstOff int // offset achieving Max
}

// Mean returns the average TTR over successful samples (0 when empty).
func (s TTRStats) Mean() float64 {
	n := s.Samples - s.Failures
	if n <= 0 {
		return 0
	}
	return float64(s.Sum) / float64(n)
}

// SweepOffsets measures TTR for every offset in offsets: agent a wakes at
// slot 0 and agent b at slot delta. horizon bounds each search.
//
// The sweep compiles the pair's hop tables (schedule.Compile) adaptively
// rather than up front — a ski-rental: once the cumulative number of
// scanned slots exceeds the one-time cost of unrolling both schedules,
// the remaining offsets replay flat tables. Fast sweeps, where every
// offset rendezvouses almost immediately, never pay for tables they
// could not amortize; adversarial sweeps, where offsets scan deep into
// (or fully exhaust) the horizon, compile within the first few offsets
// and total at most twice the cost of the optimal choice. Compilation
// goes through the shared table cache, so repeated sweeps over the same
// pair pay the unroll once, ever. It never changes results (tables are
// verified equivalents).
func SweepOffsets(a, b schedule.Schedule, offsets []int, horizon int) TTRStats {
	var st TTRStats
	compileAt := 2 * (a.Period() + b.Period()) // ≈ build + verify cost, in slot evaluations
	scanned := 0
	compiled := false
	for _, delta := range offsets {
		if !compiled && scanned >= compileAt {
			// Through the shared table cache: repeated sweeps over the same
			// pair (chunked drivers, bench iterations) unroll once, ever.
			cache := currentTableCache()
			ca, ha := cache.Compile(a)
			cb, hb := cache.Compile(b)
			a, b = ca, cb
			defer ha.Release()
			defer hb.Release()
			compiled = true
		}
		st.Samples++
		ttr, ok := PairTTR(a, b, 0, delta, horizon)
		if !ok {
			st.Failures++
			scanned += horizon
			continue
		}
		scanned += ttr + 1
		st.Sum += int64(ttr)
		if ttr >= st.Max {
			st.Max = ttr
			st.WorstOff = delta
		}
	}
	return st
}

// ExhaustiveOffsets returns every offset in [0, period): for cyclic
// schedules the TTR at offset δ depends only on δ mod the earlier
// agent's period, so this sweep is a complete worst-case search.
func ExhaustiveOffsets(period int) []int {
	out := make([]int, period)
	for i := range out {
		out[i] = i
	}
	return out
}

// SampledOffsets returns count offsets: a dense prefix (small offsets
// stress epoch boundaries) plus uniformly random draws from [0, period).
func SampledOffsets(rng *rand.Rand, period, count int) []int {
	if count >= period {
		return ExhaustiveOffsets(period)
	}
	dense := count / 4
	out := make([]int, 0, count)
	for i := 0; i < dense; i++ {
		out = append(out, i%period)
	}
	for len(out) < count {
		out = append(out, rng.Intn(period))
	}
	return out
}

// MaxTTR runs an exhaustive sweep when the offset space is at most
// exhaustiveLimit and a sampled sweep otherwise, returning the worst
// observed TTR statistics. The relevant offset space is schedule a's
// period (a wakes first).
func MaxTTR(rng *rand.Rand, a, b schedule.Schedule, horizon, exhaustiveLimit, samples int) TTRStats {
	period := a.Period()
	if period <= exhaustiveLimit {
		return SweepOffsets(a, b, ExhaustiveOffsets(period), horizon)
	}
	return SweepOffsets(a, b, SampledOffsets(rng, period, samples), horizon)
}
