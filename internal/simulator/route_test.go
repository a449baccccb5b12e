package simulator

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
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

// TestRouteIsPure pins RunParallelEnv's routing as a pure function of
// (fleet, horizon): each case runs five times per worker count on one
// engine and must take the same route every time, with a Result
// identical to both decompositions'. From jointPairFloor meetable
// pairs up, a dense fleet of any size takes the inverted posting scan
// at any worker count, while a contact fleet, whose pair state is
// indexed by contact edge, stays pairwise however small it is and
// however many pairs it has; below the floor every fleet is pairwise.
// "In-band" fixtures hold 4,096–32,767 meetable pairs, mid-size fleets
// whose cold runs the pairwise scan finishes first (see
// jointPairFloor), and "above-band" ones more.
func TestRouteIsPure(t *testing.T) {
	const horizon = 512
	cases := []struct {
		name string
		// build returns the routed engine and the engine whose joint
		// entry point gives the second decomposition: the same engine
		// for a dense fleet, the same fleet without a topology for a
		// contact one. One cell with a radius past its diagonal keeps
		// every contact pair in range, so the two results must agree.
		build    func(t *testing.T, rng *rand.Rand) (eng, joint *Engine)
		meetable int   // the fleet's exact meetable count at horizon
		joint    bool  // the meetable count must reach jointPairFloor
		workers  []int // RunParallelEnv worker counts; nil means {2}
		want     Route
	}{
		{
			// A small dense fleet in the band runs pairwise at one
			// worker and at two.
			name: "dense-small-in-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				return denseTwin(t, routeFleet(t, rng, 128))
			},
			meetable: 128 * 127 / 2,
			workers:  []int{1, 2},
			want:     RoutePairwise,
		},
		{
			// A small dense fleet above the band takes the inverted scan
			// at one worker and at two.
			name: "dense-small-above-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				return denseTwin(t, sharedChannelFleet(t, rng, 257))
			},
			meetable: 257 * 256 / 2,
			joint:    true,
			workers:  []int{1, 2},
			want:     RouteInverted,
		},
		{
			name: "dense-in-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				return denseTwin(t, routeFleet(t, rng, 100, 100))
			},
			meetable: 2 * (100 * 99 / 2),
			want:     RoutePairwise,
		},
		{
			name: "dense-shared-in-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				return denseTwin(t, sharedChannelFleet(t, rng, 190))
			},
			meetable: 190 * 189 / 2,
			workers:  []int{1, 2},
			want:     RoutePairwise,
		},
		{
			name: "dense-large-in-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				return denseTwin(t, routeFleet(t, rng, 200))
			},
			meetable: 200 * 199 / 2,
			want:     RoutePairwise,
		},
		{
			// A topology is what makes a fleet a contact fleet to the
			// router, at any fleet size.
			name: "contact-in-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				const n = 120
				return contactTwins(t, routeFleet(t, rng, n), randomTopology(rng, n, 1, 1, 1.5))
			},
			meetable: 120 * 119 / 2,
			want:     RoutePairwise,
		},
		{
			// However many meetable pairs a contact fleet has, it stays
			// pairwise at one worker and at two.
			name: "contact-above-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				const n = 257
				return contactTwins(t, sharedChannelFleet(t, rng, n), randomTopology(rng, n, 1, 1, 1.5))
			},
			meetable: 257 * 256 / 2,
			joint:    true,
			workers:  []int{1, 2},
			want:     RoutePairwise,
		},
		{
			name: "small",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				return denseTwin(t, routeFleet(t, rng, 24))
			},
			meetable: 24 * 23 / 2,
			want:     RoutePairwise,
		},
		{
			name: "above-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, *Engine) {
				return denseTwin(t, routeFleet(t, rng, 200, 200))
			},
			meetable: 2 * (200 * 199 / 2),
			joint:    true,
			want:     RouteInverted,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, jointEng := tc.build(t, rand.New(rand.NewSource(113)))
			m := eng.meetablePairs(horizon)
			if m != tc.meetable {
				t.Fatalf("%d meetable pairs, want %d", m, tc.meetable)
			}
			if (m >= jointPairFloor) != tc.joint {
				t.Fatalf("%d meetable pairs: at or above jointPairFloor (%d) must be %v", m, jointPairFloor, tc.joint)
			}
			// Both decompositions must agree, so every routed run below is
			// checked against a kernel other than its own.
			want := pairwiseRun(eng, horizon, nil).Meetings()
			if joint := jointEng.RunJointParallelEnv(horizon, 1, nil).Meetings(); !slices.Equal(joint, want) {
				t.Fatal("the joint and pairwise decompositions disagree")
			}
			if r := jointEng.LastRoute(); r != RouteInverted {
				t.Fatalf("the joint decomposition routed %v, want inverted", r)
			}
			workers := tc.workers
			if workers == nil {
				workers = []int{2}
			}
			for _, w := range workers {
				for run := 0; run < 5; run++ {
					if got := eng.RunParallelEnv(horizon, w, nil).Meetings(); !slices.Equal(got, want) {
						t.Fatalf("workers=%d run %d diverged from the decompositions", w, run)
					}
					if r := eng.LastRoute(); r != tc.want {
						t.Fatalf("workers=%d run %d routed %v, want %v", w, run, r, tc.want)
					}
				}
			}
		})
	}
}

// denseTwin builds a dense engine over fleet; it is its own joint
// twin, since its joint entry point runs the posting scan.
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

// TestJointChoiceBandEdges pins the joint band's one edge,
// jointPairFloor, on observed routes: 256 agents sharing channel 1 give
// 32,640 meetable pairs, and one more agent whose cycle meets 127 of
// them gives 32,767 and runs pairwise, while one whose cycle meets 128
// gives 32,768 and runs the inverted scan, at one worker and at two.
// Each fleet's Result must equal the other decomposition's.
func TestJointChoiceBandEdges(t *testing.T) {
	const horizon = 512
	var fleet []Agent
	for i := range 256 {
		fleet = append(fleet, Agent{Name: fmt.Sprintf("f%03d", i), Sched: mustCyclic(t, []int{1, 100 + i})})
	}
	// Channel 100+i is f_i's alone, so an extra agent cycling over
	// channels 100 … 100+k−1 makes exactly k more meetable pairs.
	withExtra := func(k int) []Agent {
		seq := make([]int, k)
		for c := range seq {
			seq[c] = 100 + c
		}
		return append(slices.Clone(fleet), Agent{Name: "g", Sched: mustCyclic(t, seq)})
	}
	for _, tc := range []struct {
		fleet    []Agent
		meetable int
		want     Route
	}{
		{withExtra(127), jointPairFloor - 1, RoutePairwise},
		{withExtra(128), jointPairFloor, RouteInverted},
	} {
		eng, err := NewEngine(tc.fleet)
		if err != nil {
			t.Fatal(err)
		}
		if m := eng.meetablePairs(horizon); m != tc.meetable {
			t.Fatalf("%d agents: %d meetable pairs, want %d", len(tc.fleet), m, tc.meetable)
		}
		var other *Result
		if tc.want == RoutePairwise {
			other = eng.RunJointParallelEnv(horizon, 1, nil)
			if r := eng.LastRoute(); r != RouteInverted {
				t.Fatalf("%d agents: the joint decomposition routed %v, want inverted", len(tc.fleet), r)
			}
		} else {
			other = pairwiseRun(eng, horizon, nil)
		}
		want := renderMeetings(other)
		for _, w := range []int{1, 2} {
			got := renderMeetings(eng.RunParallelEnv(horizon, w, nil))
			if r := eng.LastRoute(); r != tc.want {
				t.Fatalf("%d meetable pairs, workers=%d: routed %v, want %v", tc.meetable, w, r, tc.want)
			}
			if got != want {
				t.Fatalf("%d meetable pairs, workers=%d: diverged from the other decomposition", tc.meetable, w)
			}
		}
	}
}

// TestPairwiseFallbackAtHugeHorizon pins the shapes no posting kernel
// takes: a horizon past the int32 slot encoding routes every entry
// point — Run, RunParallel and the forced joint engine — to the
// pairwise decomposition, which is exact at any horizon and stops at
// the pair's first meeting.
func TestPairwiseFallbackAtHugeHorizon(t *testing.T) {
	s := mustCyclic(t, []int{1, 2, 3})
	eng, err := NewEngine([]Agent{
		{Name: "a", Sched: s},
		{Name: "b", Sched: mustCyclic(t, []int{3, 3, 4}), Wake: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := eng.RunJointParallel(1024, 1).Meetings()
	if len(want) != 1 {
		t.Fatalf("fixture: %d meetings at horizon 1,024, want 1", len(want))
	}
	const huge = math.MaxInt32
	for name, run := range map[string]func() *Result{
		"RunEnv":                 func() *Result { return eng.RunEnv(huge, nil) },
		"RunParallelEnv(3)":      func() *Result { return eng.RunParallelEnv(huge, 3, nil) },
		"RunJointParallelEnv(2)": func() *Result { return eng.RunJointParallelEnv(huge, 2, nil) },
	} {
		if got := run().Meetings(); !slices.Equal(got, want) {
			t.Fatalf("%s at horizon %d: %v, want %v", name, huge, got, want)
		}
		if r := eng.LastRoute(); r != RoutePairwise {
			t.Fatalf("%s at horizon %d routed %v, want pairwise", name, huge, r)
		}
	}
}
