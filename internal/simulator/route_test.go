package simulator

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// routeFleet builds agents whose every pair within a group is meetable
// and whose pairs across groups never are (disjoint channel ranges), so
// the meetable count is exactly Σ size(size−1)/2 over the groups. Each
// agent cycles over three channels drawn from its group's four, one of
// them the group's base channel lo at a random position, and every
// agent wakes at slot 0: in-group pairs whose cycles align on a shared
// channel meet within three slots, and the rest never meet.
func routeFleet(t *testing.T, rng *rand.Rand, groups ...int) []Agent {
	t.Helper()
	var fleet []Agent
	for g, size := range groups {
		for range size {
			lo := 1 + 10*g
			seq := []int{lo + rng.Intn(4), lo + rng.Intn(4), lo + rng.Intn(4)}
			seq[rng.Intn(len(seq))] = lo
			fleet = append(fleet, Agent{Name: fmt.Sprintf("r%04d", len(fleet)), Sched: mustCyclic(t, seq)})
		}
	}
	return fleet
}

// TestRouteIsPure pins the engine's one route: on every fleet shape,
// dense or contact, below and above the 32,768 meetable pairs from
// which a since-removed router used to send dense fleets to a posting
// scan, each case runs five times per worker count on one engine and
// must record RoutePairwise every time, with a Result identical to the
// per-slot oracle's. The case names keep that router's bands:
// "in-band" fixtures hold 4,096–32,767 meetable pairs, "above-band"
// ones more.
func TestRouteIsPure(t *testing.T) {
	const horizon = 512
	cases := []struct {
		name string
		// build returns the engine and the one the oracle runs on: the
		// same engine for a dense fleet, the same fleet without a
		// topology for a contact one. One cell with a radius past its
		// diagonal keeps every contact pair in range, so the two results
		// must agree.
		build    func(t *testing.T, rng *rand.Rand) (eng, oracle *Engine)
		meetable int   // the fleet's exact meetable count at horizon
		workers  []int // RunParallelEnv worker counts; nil means {2}
	}{
		{
			name: "dense-small-in-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				return denseTwin(t, routeFleet(t, rng, 128))
			},
			meetable: 128 * 127 / 2,
			workers:  []int{1, 2},
		},
		{
			name: "dense-small-above-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				return denseTwin(t, sharedChannelFleet(t, rng, 257))
			},
			meetable: 257 * 256 / 2,
			workers:  []int{1, 2},
		},
		{
			name: "dense-in-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				return denseTwin(t, routeFleet(t, rng, 100, 100))
			},
			meetable: 2 * (100 * 99 / 2),
		},
		{
			name: "dense-shared-in-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				return denseTwin(t, sharedChannelFleet(t, rng, 190))
			},
			meetable: 190 * 189 / 2,
			workers:  []int{1, 2},
		},
		{
			name: "dense-large-in-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				return denseTwin(t, routeFleet(t, rng, 200))
			},
			meetable: 200 * 199 / 2,
		},
		{
			name: "contact-in-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				const n = 120
				return contactTwins(t, routeFleet(t, rng, n), randomTopology(rng, n, 1, 1, 1.5))
			},
			meetable: 120 * 119 / 2,
		},
		{
			name: "contact-above-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				const n = 257
				return contactTwins(t, sharedChannelFleet(t, rng, n), randomTopology(rng, n, 1, 1, 1.5))
			},
			meetable: 257 * 256 / 2,
			workers:  []int{1, 2},
		},
		{
			name: "small",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				return denseTwin(t, routeFleet(t, rng, 24))
			},
			meetable: 24 * 23 / 2,
		},
		{
			name: "above-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				return denseTwin(t, routeFleet(t, rng, 200, 200))
			},
			meetable: 2 * (200 * 199 / 2),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, oracleEng := tc.build(t, rand.New(rand.NewSource(113)))
			if m := eng.meetablePairs(horizon); m != tc.meetable {
				t.Fatalf("%d meetable pairs, want %d", m, tc.meetable)
			}
			want := slotRun(oracleEng, horizon, nil).Meetings()
			workers := tc.workers
			if workers == nil {
				workers = []int{2}
			}
			for _, w := range workers {
				for run := 0; run < 5; run++ {
					if got := eng.RunParallelEnv(horizon, w, nil).Meetings(); !slices.Equal(got, want) {
						t.Fatalf("workers=%d run %d diverged from the oracle", w, run)
					}
					if r := eng.LastRoute(); r != RoutePairwise {
						t.Fatalf("workers=%d run %d routed %v, want pairwise", w, run, r)
					}
				}
			}
		})
	}
}

// denseTwin builds a dense engine over fleet; the oracle runs on it
// too.
func denseTwin(t *testing.T, fleet []Agent) (*Engine, *Engine) {
	t.Helper()
	eng, err := NewEngine(fleet)
	if err != nil {
		t.Fatal(err)
	}
	return eng, eng
}

// sharedChannelFleet builds n agents whose cycles all include channel
// 1, so every pair is meetable.
func sharedChannelFleet(t *testing.T, rng *rand.Rand, n int) []Agent {
	t.Helper()
	fleet := make([]Agent, n)
	for i := range fleet {
		seq := []int{1, 2 + rng.Intn(4), 2 + rng.Intn(4)}
		fleet[i] = Agent{Name: fmt.Sprintf("h%03d", i), Sched: mustCyclic(t, seq)}
	}
	return fleet
}

// TestPairwiseFallbackAtHugeHorizon pins a horizon past the int32 slot
// range on every entry point: the pairwise scan is exact at any
// horizon and stops at the pair's first meeting.
func TestPairwiseFallbackAtHugeHorizon(t *testing.T) {
	s := mustCyclic(t, []int{1, 2, 3})
	eng, err := NewEngine([]Agent{
		{Name: "a", Sched: s},
		{Name: "b", Sched: mustCyclic(t, []int{3, 3, 4}), Wake: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := eng.Run(1024).Meetings()
	if len(want) != 1 {
		t.Fatalf("fixture: %d meetings at horizon 1,024, want 1", len(want))
	}
	const huge = math.MaxInt32
	for name, run := range map[string]func() *Result{
		"RunEnv":            func() *Result { return eng.RunEnv(huge, nil) },
		"RunParallelEnv(3)": func() *Result { return eng.RunParallelEnv(huge, 3, nil) },
	} {
		if got := run().Meetings(); !slices.Equal(got, want) {
			t.Fatalf("%s at horizon %d: %v, want %v", name, huge, got, want)
		}
		if r := eng.LastRoute(); r != RoutePairwise {
			t.Fatalf("%s at horizon %d routed %v, want pairwise", name, huge, r)
		}
	}
}

// TestPairwiseScanAtMaxIntHorizon pins wakes in the last window below
// math.MaxInt: the scan clamps each window's end to the horizon before
// adding, so the end cannot wrap negative and keep a pair live forever
// without polling its Canceler. Two agents meet at their common wake,
// math.MaxInt−10, with TTR 0, and a third, awake 290 slots earlier (in
// the window before), hops the other way round at an even offset and
// never co-hops with either. A timer guards each run, so a regression
// fails the test instead of hanging it.
func TestPairwiseScanAtMaxIntHorizon(t *testing.T) {
	const wake = math.MaxInt - 10
	eng, err := NewEngine([]Agent{
		{Name: "a", Sched: mustCyclic(t, []int{1, 2}), Wake: wake},
		{Name: "b", Sched: mustCyclic(t, []int{1, 2}), Wake: wake},
		{Name: "c", Sched: mustCyclic(t, []int{2, 1}), Wake: wake - 290},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := renderMeetings(slotRun(eng, math.MaxInt, nil))
	if want != fmt.Sprintf("a-b@%d ch1 ttr0; ", wake) {
		t.Fatalf("fixture: oracle reads %s", want)
	}
	for _, workers := range []int{1, 3} {
		done := make(chan string, 1)
		go func() { done <- renderMeetings(eng.RunParallel(math.MaxInt, workers)) }()
		select {
		case got := <-done:
			if got != want {
				t.Fatalf("workers=%d: %s, want %s", workers, got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: a run at horizon math.MaxInt did not return within 10 s", workers)
		}
	}
}
