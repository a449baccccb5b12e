package simulator

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
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

// slotRun is the in-package oracle: the slot model transcribed pair by
// pair and slot by slot through Channel, sharing no block, mask, ring
// or chunk code with the pairwise scan. It visits every pair-space
// slot, meetable or not, so it also checks the scan's pruning, and
// tallies its meetings by a walk over them (foldMeetings).
func slotRun(e *Engine, horizon int, env Environment) *Result {
	res := e.newResult(horizon)
	e.ps.forEach(func(p, i, j int) {
		a, b := e.agents[i], e.agents[j]
		for t := max(a.Wake, b.Wake); t < min(a.end(horizon), b.end(horizon)); t++ {
			ch := a.Sched.Channel(t - a.Wake)
			if ch == b.Sched.Channel(t-b.Wake) && (env == nil || env.Available(ch, t)) {
				res.first[p] = t + 1
				return
			}
		}
	})
	res.tally = foldMeetings(res.Meetings())
	return res
}

// foldMeetings is the tally of ms (Meetable left zero), folded meeting
// by meeting.
func foldMeetings(ms []Meeting) (t PairTally) {
	for _, m := range ms {
		t.Met++
		t.TTRSum += int64(m.TTR)
		t.LastSlot = max(t.LastSlot, m.Slot)
	}
	return t
}

// TestRunParallelDegenerate covers the edges: zero and short horizons,
// horizons one slot either side of a window, fleets with nothing
// meetable, and repeated runs on one engine (the pooled pair list and
// block rings must not leak state between runs).
func TestRunParallelDegenerate(t *testing.T) {
	a := mustCyclic(t, []int{1, 2})
	b := mustCyclic(t, []int{2, 1})
	c := mustCyclic(t, []int{5})
	eng, err := NewEngine([]Agent{
		{Name: "a", Sched: a}, {Name: "b", Sched: b}, {Name: "c", Sched: c, Wake: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.RunParallel(0, 4); got.MetCount() != 0 {
		t.Fatalf("zero horizon recorded meetings: %d", got.MetCount())
	}
	if r := eng.LastRoute(); r != RoutePairwise {
		t.Fatalf("zero horizon routed %v, want pairwise", r)
	}
	for run := 0; run < 4; run++ {
		for _, h := range []int{1, blockLen - 1, blockLen + 1, 2000} {
			want := renderMeetings(slotRun(eng, h, nil))
			if got := renderMeetings(eng.RunParallel(h, 4)); got != want {
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
	if got := lone.RunParallel(500, 4); got.MetCount() != 0 {
		t.Fatalf("disjoint fleet met: %d", got.MetCount())
	}
}

// TestSessionScratchReuse re-runs one session across horizons and
// environments on a mixed fleet: each run must match the oracle,
// whatever the last left in the recycled result, pair list and block
// rings.
func TestSessionScratchReuse(t *testing.T) {
	mixed, err := NewEngine(jointTestFleet(t, rand.New(rand.NewSource(59)), 20))
	if err != nil {
		t.Fatal(err)
	}
	sess := mixed.Session()
	for run := 0; run < 4; run++ {
		for _, h := range []int{1, blockLen - 1, blockLen + 1, 2500} {
			for _, env := range []Environment{nil, channelBlocked(3)} {
				want := renderMeetings(slotRun(mixed, h, env))
				if got := renderMeetings(sess.RunParallelEnv(h, 3, env)); got != want {
					t.Fatalf("session run %d horizon %d env=%v: got %s want %s", run, h, env, got, want)
				}
			}
		}
	}
}

// TestConcurrentRunsOnOneEngine runs one engine from several goroutines
// at once — RunParallel at one worker and at three, and Run — so
// concurrent runs draw their pooled pair lists and block rings side by
// side; every result must still equal the oracle's.
func TestConcurrentRunsOnOneEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	eng, err := NewEngine(jointTestFleet(t, rng, 24))
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 3000
	want := renderMeetings(slotRun(eng, horizon, nil))
	runs := []func() *Result{
		func() *Result { return eng.RunParallel(horizon, 1) },
		func() *Result { return eng.RunParallel(horizon, 3) },
		func() *Result { return eng.Run(horizon) },
	}
	var wg sync.WaitGroup
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 4 {
				if got := renderMeetings(runs[g%len(runs)]()); got != want {
					t.Errorf("goroutine %d diverged from the oracle", g)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestHopSetOrderInvisible builds one 257-agent dense fleet in input
// order and in reverse. NewEngine numbers agents by hop set, stable in
// input order, so agents with equal hop sets take different ids in the
// two engines, and the pairwise scan lists and chunks its pairs in
// different orders. Under an Environment, at one worker and at two,
// both must agree on Meetings and Tally.
func TestHopSetOrderInvisible(t *testing.T) {
	const horizon = 2048
	fleet := sharedChannelFleet(t, rand.New(rand.NewSource(137)), 257)
	reversed := slices.Clone(fleet)
	slices.Reverse(reversed)
	var engs [2]*Engine
	for k, agents := range [][]Agent{fleet, reversed} {
		eng, err := NewEngine(agents)
		if err != nil {
			t.Fatal(err)
		}
		engs[k] = eng
	}
	if slices.EqualFunc(engs[0].agents, engs[1].agents, func(a, b Agent) bool { return a.Name == b.Name }) {
		t.Fatal("fixture: both input orders gave the same engine ids")
	}
	for _, workers := range []int{1, 2} {
		var (
			want      []Meeting
			wantTally PairTally
		)
		for k, eng := range engs {
			res := eng.RunParallelEnv(horizon, workers, evenSlotsBlocked{})
			got, tally := res.Meetings(), eng.Tally(res)
			if k == 0 {
				if len(got) == 0 {
					t.Fatal("fixture: no meeting")
				}
				want, wantTally = got, tally
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("workers=%d: reversed input order changed the meetings", workers)
			}
			if tally != wantTally {
				t.Fatalf("workers=%d: reversed input order changed the tally: %+v, want %+v", workers, tally, wantTally)
			}
		}
	}
}
