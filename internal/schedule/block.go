package schedule

import (
	"fmt"
	"sort"
)

// CheckSlot enforces the repository-wide slot contract: schedules are
// defined on t ≥ 0 only, and every implementation panics on a negative
// slot with this message. Callers that translate between clocks (wake
// offsets, phase boundaries) must do their own clamping before calling
// Channel or ChannelBlock.
func CheckSlot(t int) {
	if t < 0 {
		panic(fmt.Sprintf("schedule: negative slot %d", t))
	}
}

// BlockEvaluator is the optional fast-path contract next to Schedule
// (analogous to the optional AllChannels method): ChannelBlock fills
// dst[i] = Channel(start+i) for every i in one call, letting an
// implementation amortize per-slot work — epoch lookups, permutation
// draws, interface dispatch — over a whole block. Implementations must
// produce exactly the channels Channel would, and, like Channel, must
// stay pure and safe for concurrent readers.
type BlockEvaluator interface {
	ChannelBlock(dst []int, start int)
}

// FillBlock fills dst[i] = s.Channel(start+i), using the schedule's
// native ChannelBlock when it implements BlockEvaluator and falling back
// to per-slot evaluation otherwise. It is the single entry point the
// simulator hot loops use, so every schedule benefits from whichever
// path it can offer.
func FillBlock(s Schedule, dst []int, start int) {
	if len(dst) == 0 {
		return
	}
	CheckSlot(start)
	if b, ok := s.(BlockEvaluator); ok {
		b.ChannelBlock(dst, start)
		return
	}
	for i := range dst {
		dst[i] = s.Channel(start + i)
	}
}

// HopMasker is the optional fast path next to BlockEvaluator: HopMask
// returns a word with bit c&63 set for every channel c that Channel
// hops at some slot in [start, start+n), n ≥ 1, computed from the
// schedule's structure without evaluating the slots. It is a superset
// contract: extra bits are allowed, but a missing bit is a bug, because
// callers skip a window whose masks are disjoint. Like Channel, it must
// stay pure and safe for concurrent readers.
type HopMasker interface {
	HopMask(start, n int) uint64
}

// HopMask returns the hop mask of s over the n slots from start (see
// HopMasker): the schedule's native HopMask when it has one, and all
// ones otherwise, which claims every channel, so a caller that skips
// disjoint masks scans such a schedule in every window.
func HopMask(s Schedule, start, n int) uint64 {
	CheckSlot(start)
	if m, ok := s.(HopMasker); ok {
		return m.HopMask(start, n)
	}
	return ^uint64(0)
}

// EventualPeriod marks schedules whose Period is only eventually valid:
// Channel(t+p) = Channel(t) is guaranteed from some slot onward but not
// from t = 0 (Dynamic's transitional phases, and any wrapper around
// such a schedule). Compile refuses these — a one-period hop table
// would silently misreport the transient prefix.
type EventualPeriod interface {
	PeriodIsEventual() bool
}

// IsEventuallyPeriodic reports whether s declares its period only
// eventually valid. Wrappers propagate the marker by delegating to
// this on their inner schedule, so the rule lives in exactly one place.
func IsEventuallyPeriodic(s Schedule) bool {
	e, ok := s.(EventualPeriod)
	return ok && e.PeriodIsEventual()
}

// AllChannels returns the complete hop set of s, sorted ascending: the
// optional AllChannels method when the schedule's availability varies
// over time (Dynamic and wrappers over it), Channels() otherwise.
// Overlap-based pruning must use this, never Channels() directly. The
// result is re-sorted defensively if an implementation outside this
// repository violates the sorted-set contract, so set comparisons by
// merge scan stay sound.
func AllChannels(s Schedule) []int {
	var out []int
	if v, ok := s.(interface{ AllChannels() []int }); ok {
		out = v.AllChannels()
	} else {
		out = s.Channels()
	}
	if !sort.IntsAreSorted(out) {
		out = append([]int(nil), out...)
		sort.Ints(out)
	}
	return out
}

// DefaultCompileCap is the largest period, in slots, that Compile will
// materialize: 1<<20 slots is an 8 MiB table, comfortably amortized by
// the offset sweeps and long-horizon runs that want compiled schedules,
// while huge-period schedules (Random and the beacon protocols report
// 1<<22 by default, Jump-Stay grows as n³) transparently keep their
// native evaluation paths.
const DefaultCompileCap = 1 << 20

// Compiled is a schedule unrolled into a flat hop table covering one
// full period. Channel is an array load; ChannelBlock is a wrapped
// copy. The wrapped schedule is retained for Channels/AllChannels and
// for callers that want to inspect what was compiled.
type Compiled struct {
	inner Schedule
	table []int
}

var _ Schedule = (*Compiled)(nil)
var _ BlockEvaluator = (*Compiled)(nil)

// Channel implements Schedule.
func (c *Compiled) Channel(t int) int {
	CheckSlot(t)
	return c.table[t%len(c.table)]
}

// ChannelBlock implements BlockEvaluator by copying from the hop table.
func (c *Compiled) ChannelBlock(dst []int, start int) {
	CheckSlot(start)
	p := len(c.table)
	off := start % p
	for len(dst) > 0 {
		n := copy(dst, c.table[off:])
		dst = dst[n:]
		off = 0
	}
}

// Period implements Schedule.
func (c *Compiled) Period() int { return len(c.table) }

// Channels implements Schedule.
func (c *Compiled) Channels() []int { return c.inner.Channels() }

// AllChannels propagates the complete hop set of the wrapped schedule.
func (c *Compiled) AllChannels() []int { return AllChannels(c.inner) }

// Inner returns the schedule the table was compiled from.
func (c *Compiled) Inner() Schedule { return c.inner }

// Compile is CompileCap with DefaultCompileCap.
func Compile(s Schedule) Schedule { return CompileCap(s, DefaultCompileCap) }

// CompileCap materializes one period of s into a Compiled hop table,
// or returns s unchanged when a table would be unsound or too large:
//
//   - s is already compiled;
//   - s declares an eventually-valid period (EventualPeriod — Dynamic
//     with more than one phase, or a wrapper over one);
//   - Period() exceeds maxSlots;
//   - the materialized table fails verification against a second period
//     (defense in depth: a schedule whose Period contract is broken
//     falls back to its own evaluation instead of silently diverging).
//
// The fallback is transparent: callers treat the result as an ordinary
// Schedule either way, and FillBlock picks the best available path.
func CompileCap(s Schedule, maxSlots int) Schedule {
	if _, ok := s.(*Compiled); ok {
		return s
	}
	if IsEventuallyPeriodic(s) {
		return s
	}
	p := s.Period()
	if p <= 0 || p > maxSlots {
		return s
	}
	table := make([]int, p)
	FillBlock(s, table, 0)
	// Verify the advertised period before trusting the table: compare a
	// second full period chunk-wise against the first.
	const chunk = 4096
	buf := make([]int, min(chunk, p))
	for off := 0; off < p; off += len(buf) {
		n := min(len(buf), p-off)
		FillBlock(s, buf[:n], p+off)
		for i := 0; i < n; i++ {
			if buf[i] != table[off+i] {
				return s
			}
		}
	}
	return &Compiled{inner: s, table: table}
}
