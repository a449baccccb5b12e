package simulator

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// routeFleet builds agents whose every pair within a group is meetable
// (channels from the group's own four, simultaneous wakes) and whose
// pairs across groups never are (disjoint channel ranges), so the
// meetable count is exactly Σ size(size−1)/2 over the groups.
func routeFleet(t *testing.T, rng *rand.Rand, groups ...int) []Agent {
	t.Helper()
	var fleet []Agent
	for g, size := range groups {
		for range size {
			lo := 1 + 10*g
			seq := []int{lo + rng.Intn(4), lo + rng.Intn(4), lo + rng.Intn(4)}
			fleet = append(fleet, Agent{Name: fmt.Sprintf("r%04d", len(fleet)), Sched: mustCyclic(t, seq)})
		}
	}
	return fleet
}

// TestRouteIsPure pins RunParallelEnv's routing as a pure function of
// (fleet, horizon): each case runs five times per worker count on one
// engine and must take the same route every time, with an identical
// Result. Inside the [jointPairFloor, jointPairCeiling] band a dense
// fleet of any size routes to the inverted posting scan and a contact
// fleet stays pairwise; below the band every fleet is pairwise and
// above it every fleet is joint — a dense one on the inverted scan at
// any worker count.
func TestRouteIsPure(t *testing.T) {
	const horizon = 512
	cases := []struct {
		name    string
		build   func(t *testing.T, rng *rand.Rand) (*Engine, func())
		band    bool  // meetable count must lie inside the band
		workers []int // RunParallelEnv worker counts; nil means {2}
		want    func(Route) bool
	}{
		{
			// A small dense fleet inside the band routes to the inverted
			// scan from its first run on.
			name: "dense-small-in-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, func()) {
				eng, err := NewEngine(routeFleet(t, rng, 128)) // 7,225 meetable pairs
				if err != nil {
					t.Fatal(err)
				}
				return eng, func() {}
			},
			band: true,
			want: func(r Route) bool { return r == RouteInverted },
		},
		{
			// A small dense fleet above the band takes the inverted scan
			// at one worker and at two.
			name: "dense-small-above-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, func()) {
				// Every cycle includes channel 1, so all 17,955 pairs are
				// meetable.
				fleet := make([]Agent, 190)
				for i := range fleet {
					seq := []int{1, 2 + rng.Intn(4), 2 + rng.Intn(4)}
					fleet[i] = Agent{Name: fmt.Sprintf("h%03d", i), Sched: mustCyclic(t, seq)}
				}
				eng, err := NewEngine(fleet)
				if err != nil {
					t.Fatal(err)
				}
				if m := eng.meetablePairs(horizon); m <= jointPairCeiling {
					t.Fatalf("%d meetable pairs, want above %d", m, jointPairCeiling)
				}
				return eng, func() {}
			},
			workers: []int{1, 2},
			want:    func(r Route) bool { return r == RouteInverted },
		},
		{
			name: "dense-in-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, func()) {
				eng, err := NewEngine(routeFleet(t, rng, 100, 100)) // 9,900 meetable pairs, 200 agents
				if err != nil {
					t.Fatal(err)
				}
				return eng, func() {}
			},
			band: true,
			want: func(r Route) bool { return r == RouteInverted },
		},
		{
			name: "contact-in-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, func()) {
				// Edge-indexed pair state is what makes a fleet a contact
				// fleet to the router; one cell keeps every pair in range.
				prev := SetSparseStateFloor(0)
				const n = 120 // 7,140 meetable pairs
				eng, err := NewEngineContact(routeFleet(t, rng, n), randomTopology(rng, n, 1, 1, 1.5))
				if err != nil {
					SetSparseStateFloor(prev)
					t.Fatal(err)
				}
				return eng, func() { SetSparseStateFloor(prev) }
			},
			band: true,
			want: func(r Route) bool { return r == RoutePairwise },
		},
		{
			name: "small",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, func()) {
				eng, err := NewEngine(routeFleet(t, rng, 24))
				if err != nil {
					t.Fatal(err)
				}
				return eng, func() {}
			},
			want: func(r Route) bool { return r == RoutePairwise },
		},
		{
			name: "above-band",
			build: func(t *testing.T, rng *rand.Rand) (*Engine, func()) {
				eng, err := NewEngine(routeFleet(t, rng, 200)) // 19,900 meetable pairs
				if err != nil {
					t.Fatal(err)
				}
				return eng, func() {}
			},
			want: func(r Route) bool { return r == RouteInverted },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, restore := tc.build(t, rand.New(rand.NewSource(113)))
			defer restore()
			if m := eng.meetablePairs(horizon); tc.band && (m < jointPairFloor || m > jointPairCeiling) {
				t.Fatalf("%d meetable pairs missed the band [%d, %d]", m, jointPairFloor, jointPairCeiling)
			}
			// Both decompositions must agree, so every routed run below is
			// checked against a kernel other than its own.
			want := pairwiseRun(eng, horizon, nil).Meetings()
			if joint := eng.RunJointParallelEnv(horizon, 1, nil).Meetings(); !slices.Equal(joint, want) {
				t.Fatal("the joint and pairwise decompositions disagree")
			}
			workers := tc.workers
			if workers == nil {
				workers = []int{2}
			}
			for _, w := range workers {
				var routes []Route
				for run := 0; run < 5; run++ {
					if got := eng.RunParallelEnv(horizon, w, nil).Meetings(); !slices.Equal(got, want) {
						t.Fatalf("workers=%d run %d diverged from the decompositions", w, run)
					}
					routes = append(routes, eng.LastRoute())
				}
				for _, r := range routes {
					if r != routes[0] || !tc.want(r) {
						t.Fatalf("workers=%d routes %v: want the same expected route on every run", w, routes)
					}
				}
			}
		})
	}
}

// TestJointChoiceBandEdges pins routesJoint at the band boundaries: a
// count below jointPairFloor is pairwise and one above jointPairCeiling
// is joint whatever the fleet, and both edges are inside the band,
// where the choice follows the fleet's joint scan kind — joint for
// every dense fleet, small or not, and pairwise for a contact fleet
// with edge-indexed pair state.
func TestJointChoiceBandEdges(t *testing.T) {
	const horizon = 512
	rng := rand.New(rand.NewSource(109))
	small, err := NewEngine(routeFleet(t, rng, 8))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewEngine(routeFleet(t, rng, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	prev := SetSparseStateFloor(0)
	contact, err := NewEngineContact(routeFleet(t, rng, 8), randomTopology(rng, 8, 2, 2, 1.5))
	SetSparseStateFloor(prev)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		eng      *Engine
		meetable int
		want     bool
	}{
		{"small/below-floor", small, jointPairFloor - 1, false},
		{"small/floor", small, jointPairFloor, true},
		{"small/ceiling", small, jointPairCeiling, true},
		{"small/above-ceiling", small, jointPairCeiling + 1, true},
		{"dense/below-floor", dense, jointPairFloor - 1, false},
		{"dense/floor", dense, jointPairFloor, true},
		{"dense/ceiling", dense, jointPairCeiling, true},
		{"dense/above-ceiling", dense, jointPairCeiling + 1, true},
		{"contact/below-floor", contact, jointPairFloor - 1, false},
		{"contact/floor", contact, jointPairFloor, false},
		{"contact/ceiling", contact, jointPairCeiling, false},
		{"contact/above-ceiling", contact, jointPairCeiling + 1, true},
	} {
		if got := tc.eng.routesJoint(tc.meetable, horizon); got != tc.want {
			t.Errorf("%s: routesJoint(%d) = %v, want %v", tc.name, tc.meetable, got, tc.want)
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
