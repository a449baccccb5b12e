package simulator

import (
	"fmt"
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
			want := eng.RunEnv(horizon, nil).Meetings()
			workers := tc.workers
			if workers == nil {
				workers = []int{2}
			}
			for _, w := range workers {
				var routes []Route
				for run := 0; run < 5; run++ {
					if got := eng.RunParallelEnv(horizon, w, nil).Meetings(); !slices.Equal(got, want) {
						t.Fatalf("workers=%d run %d diverged from the serial joint run", w, run)
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
