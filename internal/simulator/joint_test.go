package simulator

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rendezvous/internal/schedule"
)

// jointTestFleet draws a randomized fleet over the repository's
// schedule families with staggered wakes and churn, sized so runs stay
// cheap while still producing multi-window scans.
func jointTestFleet(t *testing.T, rng *rand.Rand, agents int) []Agent {
	t.Helper()
	const n = 12
	fleet := make([]Agent, agents)
	for i := range fleet {
		w := RandomOverlappingPair(rng, n, 1+rng.Intn(3), 1+rng.Intn(3))
		a := Agent{
			Name:  "a" + string(rune('0'+i/10)) + string(rune('0'+i%10)),
			Sched: mixedSchedule(t, rng, n, w.A),
			Wake:  rng.Intn(600),
		}
		if rng.Intn(3) == 0 {
			a.Leave = a.Wake + 1 + rng.Intn(1500)
		}
		fleet[i] = a
	}
	return fleet
}

// pairwiseRun is the in-package oracle for the joint kernels: the
// pairwise decomposition at one worker, which shares no scan code with
// the posting driver.
func pairwiseRun(e *Engine, horizon int, env Environment) *Result {
	return e.runPairwiseEnvInto(e.newResult(horizon), horizon, 1, env, nil)
}

// TestJointShardedPartitionInvariance pins the sharded scan's defining
// property directly: for any window width (any partition of the time
// axis into contiguous shards) and any worker count, runJointSharded
// reproduces the pairwise decomposition meeting for meeting.
func TestJointShardedPartitionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		fleet := jointTestFleet(t, rng, 5+rng.Intn(5))
		eng, err := NewEngine(fleet)
		if err != nil {
			t.Fatal(err)
		}
		horizon := 700 + rng.Intn(2400)
		var env Environment
		if trial%2 == 1 {
			env = evenSlotsBlocked{}
		}
		want := renderMeetings(pairwiseRun(eng, horizon, env))
		for _, workers := range []int{2, 3, 8} {
			for _, window := range []int{blockLen, 3 * blockLen, 16 * blockLen} {
				res := eng.newResult(horizon)
				eng.runJointSharded(res, horizon, workers, window, env, eng.meetablePairs(horizon), nil)
				if got := renderMeetings(res); got != want {
					t.Fatalf("trial %d workers=%d window=%d diverged:\n got %s\nwant %s",
						trial, workers, window, got, want)
				}
			}
		}
	}
}

// TestRunJointParallelMatchesRun drives the public entry points across
// worker counts and environments against the pairwise decomposition.
func TestRunJointParallelMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fleet := jointTestFleet(t, rng, 9)
	eng, err := NewEngine(fleet)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 3000
	for _, env := range []Environment{nil, evenSlotsBlocked{}, channelBlocked(3)} {
		want := renderMeetings(pairwiseRun(eng, horizon, env))
		for _, workers := range []int{0, 1, 2, 5, 16} {
			if got := renderMeetings(eng.RunJointParallelEnv(horizon, workers, env)); got != want {
				t.Fatalf("env=%v workers=%d: got %s want %s", env, workers, got, want)
			}
		}
	}
	if got := renderMeetings(eng.RunJointParallel(horizon, 3)); got != renderMeetings(pairwiseRun(eng, horizon, nil)) {
		t.Fatalf("RunJointParallel diverged from the pairwise decomposition: %s", got)
	}
}

// TestRunJointParallelDegenerate covers the edges: zero/short horizons
// (an empty horizon takes no posting kernel and routes pairwise), fleets
// with nothing meetable, and repeated runs on one engine (the scratch
// pools must not leak state between runs).
func TestRunJointParallelDegenerate(t *testing.T) {
	a := mustCyclic(t, []int{1, 2})
	b := mustCyclic(t, []int{2, 1})
	c := mustCyclic(t, []int{5})
	eng, err := NewEngine([]Agent{
		{Name: "a", Sched: a}, {Name: "b", Sched: b}, {Name: "c", Sched: c, Wake: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.RunJointParallel(0, 4); got.MetCount() != 0 {
		t.Fatalf("zero horizon recorded meetings: %d", got.MetCount())
	}
	if r := eng.LastRoute(); r != RoutePairwise {
		t.Fatalf("zero horizon routed %v, want pairwise", r)
	}
	for run := 0; run < 4; run++ {
		for _, h := range []int{1, blockLen - 1, blockLen + 1, 2000} {
			want := renderMeetings(pairwiseRun(eng, h, nil))
			if got := renderMeetings(eng.RunJointParallel(h, 4)); got != want {
				t.Fatalf("run %d horizon %d: got %s want %s", run, h, got, want)
			}
		}
	}
	// A fleet whose only pairs are disjoint: nothing meetable at all.
	lone, err := NewEngine([]Agent{
		{Name: "x", Sched: mustCyclic(t, []int{1})},
		{Name: "y", Sched: mustCyclic(t, []int{2})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := lone.RunJointParallel(500, 4); got.MetCount() != 0 {
		t.Fatalf("disjoint fleet met: %d", got.MetCount())
	}
}

// cancelAtSlot is an always-available environment that fires c once the
// scan consults a slot at or past at.
type cancelAtSlot struct {
	c  *Canceler
	at int
}

func (e cancelAtSlot) Available(ch, t int) bool {
	if t >= e.at {
		e.c.Cancel()
	}
	return true
}

// TestSoloPostingStopsAtEarlyExit pins the posting driver's one-worker
// early exit on a dense fleet whose every pair meets within a few
// thousand slots of a 2^19-slot horizon. A lone worker's hits arrive in
// time order, so once every meetable pair has met it must stop at the
// next block instead of scanning the rest of its 131,072-slot window —
// and that stop must count as a completed window, so a cancellation
// landing right after it keeps every meeting.
func TestSoloPostingStopsAtEarlyExit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const horizon = 1 << 19
	fleet := make([]Agent, 16)
	for i := range fleet {
		// Channel 1 in every set: all 120 pairs are meetable, and the
		// paper's schedule meets each within its rendezvous bound.
		s, err := schedule.NewAsync(64, []int{1, 2 + rng.Intn(31), 33 + rng.Intn(31)})
		if err != nil {
			t.Fatal(err)
		}
		fleet[i] = Agent{Name: fmt.Sprintf("e%02d", i), Sched: s, Wake: rng.Intn(2000)}
	}
	eng, err := NewEngine(fleet)
	if err != nil {
		t.Fatal(err)
	}
	want := pairwiseRun(eng, horizon, nil)
	meetable := eng.meetablePairs(horizon)
	window := jointWindow(horizon, 1)
	last := eng.Tally(want).LastSlot
	if want.MetCount() != meetable || last >= window/4 {
		t.Fatalf("fixture: %d of %d meetable pairs met, the last at slot %d; want all, early in the %d-slot window",
			want.MetCount(), meetable, last, window)
	}
	check := func(label string, env Environment, c *Canceler) {
		t.Helper()
		res := eng.newResult(horizon)
		eng.runJointSharded(res, horizon, 1, window, env, meetable, c)
		if got := renderMeetings(res); got != renderMeetings(want) {
			t.Fatalf("%s: %d meetings diverged from the pairwise decomposition's %d", label, res.MetCount(), want.MetCount())
		}
	}
	check("no canceler", nil, nil)
	const budget = 1 << 40
	canc := &Canceler{}
	canc.CancelAfterPolls(budget)
	check("unfired canceler", nil, canc)
	if polls, limit := budget-canc.budget.Load(), int64(last/blockLen+2); polls > limit {
		t.Fatalf("solo run polled %d blocks; the last meeting is at slot %d, so at most %d", polls, last, limit)
	}
	late := &Canceler{}
	check("cancel after the early exit", cancelAtSlot{c: late, at: last}, late)
	if !late.Canceled() {
		t.Fatal("the scan never consulted the last meeting's slot")
	}
}

// TestConcurrentRunsOnOneEngine runs one engine from several goroutines
// at once — the joint engine at one worker and at three, and Run — so
// concurrent runs draw their pooled run state and scratch side by side;
// every result must still equal the pairwise decomposition's.
func TestConcurrentRunsOnOneEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	eng, err := NewEngine(jointTestFleet(t, rng, 24))
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 3000
	want := renderMeetings(pairwiseRun(eng, horizon, nil))
	runs := []func() *Result{
		func() *Result { return eng.RunJointParallel(horizon, 1) },
		func() *Result { return eng.RunJointParallel(horizon, 3) },
		func() *Result { return eng.Run(horizon) },
	}
	var wg sync.WaitGroup
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 4 {
				if got := renderMeetings(runs[g%len(runs)]()); got != want {
					t.Errorf("goroutine %d diverged from the pairwise decomposition", g)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunParallelJointCrossover exercises RunParallelEnv's routing to
// the joint engine: a fleet well above jointPairFloor must still
// reproduce the pairwise decomposition exactly (routing is a
// performance choice, never a semantic one).
func TestRunParallelJointCrossover(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const agents = 320 // 51,040 pairs, 40,554 meetable: past jointPairFloor after disjoint-set pruning
	fleet := make([]Agent, agents)
	for i := range fleet {
		seq := []int{1 + rng.Intn(6), 1 + rng.Intn(6), 1 + rng.Intn(6)}
		fleet[i] = Agent{
			Name:  "n" + string(rune('0'+i/100)) + string(rune('0'+i/10%10)) + string(rune('0'+i%10)),
			Sched: mustCyclic(t, seq),
			Wake:  rng.Intn(64),
		}
	}
	eng, err := NewEngine(fleet)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.meetablePairs(256); n < jointPairFloor {
		t.Fatalf("fleet too small to route joint: %d pairs", n)
	}
	want := renderMeetings(pairwiseRun(eng, 256, evenSlotsBlocked{}))
	for _, workers := range []int{1, 4} {
		if got := renderMeetings(eng.RunParallelEnv(256, workers, evenSlotsBlocked{})); got != want {
			t.Fatalf("workers=%d: joint route diverged from the pairwise decomposition", workers)
		}
		if r := eng.LastRoute(); r == RoutePairwise {
			t.Fatalf("workers=%d: routed %v, want a joint route", workers, r)
		}
	}
}

// TestCompileDense pins the dense remap layer: a compiled schedule's
// dense table must reproduce id(Channel(t)) for every slot, including
// wrapped reads across the period boundary, and FillBlockDense must
// fall back to remap-per-block for schedules without a table.
func TestCompileDense(t *testing.T) {
	s := mustCyclic(t, []int{4, 9, 4, 2, 7})
	id := func(ch int) int32 { return int32(ch * 3) }
	c := schedule.Compile(s)
	d, ok := schedule.CompileDense(c, id)
	if !ok {
		t.Fatal("compiled schedule has no dense table")
	}
	if d.Len() != s.Period() {
		t.Fatalf("dense table length %d, want period %d", d.Len(), s.Period())
	}
	scratch := make([]int, 64)
	for _, start := range []int{0, 3, 4, 5, 13, 257} {
		var fromTable, fromFallback [64]int32
		schedule.FillBlockDense(c, d, fromTable[:], start, id, scratch)
		schedule.FillBlockDense(s, nil, fromFallback[:], start, id, scratch)
		for x := range fromTable {
			want := id(s.Channel(start + x))
			if fromTable[x] != want || fromFallback[x] != want {
				t.Fatalf("start %d slot %d: table %d fallback %d want %d",
					start, x, fromTable[x], fromFallback[x], want)
			}
		}
	}
	if _, ok := schedule.CompileDense(s, id); ok {
		t.Fatal("CompileDense accepted an uncompiled schedule")
	}
}
