// Package schedtest is the shared conformance suite for the Schedule
// contract. Every schedule implementation in this repository — package
// schedule's constructions, the baselines, the beacon protocols, the
// pair schedules, and the simulator's wrappers — runs Conform from its
// own tests, so the contract (purity, period validity, the negative-
// slot panic, and ChannelBlock ≡ Channel) is enforced uniformly instead
// of re-asserted ad hoc per package.
package schedtest

import (
	"sort"

	"rendezvous/internal/schedule"
)

// T is the subset of *testing.T the suite needs. An interface so the
// suite can test itself: schedtest's own tests run Conform against
// deliberately broken schedules with a failure recorder in place of a
// real *testing.T, proving every clause actually bites.
//
// Fatalf must stop execution (like *testing.T's), either by FailNow
// semantics or by panicking; Conform assumes it does not return.
type T interface {
	Helper()
	Fatalf(format string, args ...any)
}

// maxProbe bounds how far past interesting boundaries the suite probes,
// keeping the cost independent of the schedule's period.
const maxProbe = 1 << 11

// sampleSlots returns the probe slots for a schedule of period p: a
// dense prefix, both sides of the period boundary, and the start of the
// second period (which a correct Period must replay exactly).
func sampleSlots(p int) []int {
	var out []int
	for t := 0; t < min(p+65, maxProbe); t++ {
		out = append(out, t)
	}
	for _, t := range []int{p - 2, p - 1, p, p + 1, p + 63, 2*p - 1, 2 * p, 2*p + 1} {
		if t >= 0 {
			out = append(out, t)
		}
	}
	return out
}

// Conform runs the full conformance suite against s. It asserts:
//
//   - Period() is positive;
//   - Channels() is non-empty, sorted, duplicate-free (and a subset of
//     AllChannels when the schedule exposes one);
//   - purity: repeated Channel calls at the same slot agree;
//   - every hopped channel belongs to the complete hop set;
//   - Period validity: Channel(t+P) = Channel(t), unless the schedule
//     declares its period eventually valid (EventualPeriod);
//   - ChannelBlock ≡ Channel slot-for-slot over windows straddling
//     every boundary the implementation cares about;
//   - for a HopMasker, HopMask covers every channel the block emits,
//     over windows starting at every slot of the probed prefix;
//   - Channel(-1) and FillBlock at a negative start panic;
//   - Compile(s) evaluates identically to s.
func Conform(t T, s schedule.Schedule) {
	t.Helper()
	p := s.Period()
	if p <= 0 {
		t.Fatalf("Period() = %d, want positive", p)
	}
	checkChannelSets(t, s)
	hopSet := completeHopSet(s)

	slots := sampleSlots(p)
	want := make(map[int]int, len(slots))
	for _, tt := range slots {
		c := s.Channel(tt)
		if c2 := s.Channel(tt); c2 != c {
			t.Fatalf("impure: Channel(%d) = %d then %d", tt, c, c2)
		}
		if !hopSet[c] {
			t.Fatalf("Channel(%d) = %d, not in hop set %v", tt, c, sortedKeys(hopSet))
		}
		want[tt] = c
	}
	if !schedule.IsEventuallyPeriodic(s) {
		for _, tt := range slots {
			if got := s.Channel(tt + p); got != want[tt] {
				t.Fatalf("period violation: Channel(%d+%d) = %d, Channel(%d) = %d", tt, p, got, tt, want[tt])
			}
		}
	}

	checkBlocks(t, s, p)
	checkHopMask(t, s, p)
	checkNegativeSlots(t, s)
	checkCompile(t, s, p)
}

// checkChannelSets validates Channels/AllChannels shape invariants.
func checkChannelSets(t T, s schedule.Schedule) {
	t.Helper()
	chans := s.Channels()
	if len(chans) == 0 {
		t.Fatalf("Channels() is empty")
	}
	if !sort.IntsAreSorted(chans) {
		t.Fatalf("Channels() not sorted: %v", chans)
	}
	for i := 1; i < len(chans); i++ {
		if chans[i] == chans[i-1] {
			t.Fatalf("Channels() has duplicate %d: %v", chans[i], chans)
		}
	}
	if v, ok := s.(interface{ AllChannels() []int }); ok {
		all := v.AllChannels()
		if !sort.IntsAreSorted(all) {
			t.Fatalf("AllChannels() not sorted: %v", all)
		}
		in := make(map[int]bool, len(all))
		for _, c := range all {
			in[c] = true
		}
		for _, c := range chans {
			if !in[c] {
				t.Fatalf("Channels() element %d missing from AllChannels() %v", c, all)
			}
		}
	}
}

// completeHopSet returns the set of channels s may ever hop.
func completeHopSet(s schedule.Schedule) map[int]bool {
	chans := schedule.AllChannels(s)
	set := make(map[int]bool, len(chans))
	for _, c := range chans {
		set[c] = true
	}
	return set
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// checkBlocks asserts ChannelBlock ≡ Channel over windows chosen to
// straddle period and implementation boundaries (words, epochs, seed
// windows, segments), plus degenerate lengths.
func checkBlocks(t T, s schedule.Schedule, p int) {
	t.Helper()
	starts := []int{0, 1, 7, 11, p - 1, p, p + 3, 2*p - 1}
	lengths := []int{1, 2, 3, 13, 63, 64, 65, 256, 300}
	buf := make([]int, 300)
	for _, start := range starts {
		if start < 0 {
			continue
		}
		for _, l := range lengths {
			dst := buf[:l]
			for i := range dst {
				dst[i] = -1
			}
			schedule.FillBlock(s, dst, start)
			for i := range dst {
				if want := s.Channel(start + i); dst[i] != want {
					t.Fatalf("ChannelBlock(len=%d, start=%d)[%d] = %d, want Channel(%d) = %d",
						l, start, i, dst[i], start+i, want)
				}
			}
		}
	}
	// Zero-length blocks are a no-op at any start, including one that
	// would otherwise panic.
	schedule.FillBlock(s, nil, 0)
	schedule.FillBlock(s, buf[:0], -1)
}

// checkHopMask asserts the HopMasker superset contract: HopMask(start,
// n) has bit c&63 set for every channel c that FillBlock emits over the
// same n slots. Windows start at every slot of the probed prefix, so
// they straddle each 12-slot block, word and epoch boundary in it, and
// at both sides of the first two period boundaries.
func checkHopMask(t T, s schedule.Schedule, p int) {
	t.Helper()
	hm, ok := s.(schedule.HopMasker)
	if !ok {
		return
	}
	starts := []int{p - 1, p, p + 3, 2*p - 1}
	for start := 0; start < min(p+65, maxProbe); start++ {
		starts = append(starts, start)
	}
	buf := make([]int, 300)
	for _, start := range starts {
		if start < 0 {
			continue
		}
		for _, l := range []int{1, 2, 13, 256, 300} {
			dst := buf[:l]
			schedule.FillBlock(s, dst, start)
			m := hm.HopMask(start, l)
			for i, c := range dst {
				if m&(1<<(uint(c)&63)) == 0 {
					t.Fatalf("HopMask(start=%d, n=%d) = %#x misses channel %d, hopped at slot %d",
						start, l, m, c, start+i)
				}
			}
		}
	}
}

// checkNegativeSlots asserts the uniform negative-slot contract. The
// block probe goes to the implementation's own ChannelBlock when it has
// one — FillBlock's entry guard would otherwise mask an implementation
// that tolerates negative starts (a gap this suite's self-test caught).
func checkNegativeSlots(t T, s schedule.Schedule) {
	t.Helper()
	if !panics(func() { s.Channel(-1) }) {
		t.Fatalf("Channel(-1) did not panic")
	}
	if b, ok := s.(schedule.BlockEvaluator); ok {
		if !panics(func() { b.ChannelBlock(make([]int, 4), -3) }) {
			t.Fatalf("ChannelBlock(start=-3) did not panic")
		}
	}
	if !panics(func() { schedule.FillBlock(s, make([]int, 4), -3) }) {
		t.Fatalf("FillBlock(start=-3) did not panic")
	}
}

func panics(f func()) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	f()
	return false
}

// checkCompile asserts that Compile yields an evaluation-equivalent
// schedule (whether or not it produced a table).
func checkCompile(t T, s schedule.Schedule, p int) {
	t.Helper()
	c := schedule.CompileCap(s, maxProbe) // small cap keeps the suite cheap
	if c == nil {
		t.Fatalf("Compile returned nil")
	}
	if _, isTable := c.(*schedule.Compiled); isTable {
		if schedule.IsEventuallyPeriodic(s) {
			t.Fatalf("Compile materialized a table for an eventually-periodic schedule")
		}
		if c.Period() != p {
			t.Fatalf("compiled Period() = %d, want %d", c.Period(), p)
		}
	}
	for _, tt := range sampleSlots(p) {
		if got, want := c.Channel(tt), s.Channel(tt); got != want {
			t.Fatalf("compiled Channel(%d) = %d, want %d", tt, got, want)
		}
	}
}
