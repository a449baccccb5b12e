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
// (fleet, horizon): each case runs five times on one engine and must
// take the same route every time, with an identical Result. Inside the
// [jointPairFloor, jointPairCeiling] band a dense fleet large enough
// for the posting scan routes joint and a contact fleet stays pairwise;
// below the band every fleet is pairwise and above it every fleet is
// joint.
func TestRouteIsPure(t *testing.T) {
	const horizon = 512
	cases := []struct {
		name  string
		build func(t *testing.T, rng *rand.Rand) (*Engine, func())
		band  bool // meetable count must lie inside the band
		want  func(Route) bool
	}{
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
			want: func(r Route) bool { return r != RoutePairwise && r != RouteNone },
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
			var routes []Route
			for run := 0; run < 5; run++ {
				if got := eng.RunParallelEnv(horizon, 2, nil).Meetings(); !slices.Equal(got, want) {
					t.Fatalf("run %d diverged from the serial joint run", run)
				}
				routes = append(routes, eng.LastRoute())
			}
			for _, r := range routes {
				if r != routes[0] || !tc.want(r) {
					t.Fatalf("routes %v: want the same expected route on every run", routes)
				}
			}
		})
	}
}

// TestCrossoverCalibrationSequence drives a dense fleet below the
// inverted floor whose meetable count lands inside the crossover band
// through six runs on one engine. There is no calibration left to
// sequence: the first run already takes the route every later run
// takes, which for a fleet without a posting scan is pairwise, and
// every run produces the identical Result.
func TestCrossoverCalibrationSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	eng, err := NewEngine(routeFleet(t, rng, 128)) // 8,128 meetable pairs
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 600
	if m := eng.meetablePairs(horizon); m < jointPairFloor || m > jointPairCeiling {
		t.Fatalf("fleet's %d meetable pairs missed the band [%d, %d]", m, jointPairFloor, jointPairCeiling)
	}
	if k := eng.scanKindFor(horizon); k == scanInverted || k == scanInvertedWide {
		t.Fatalf("128-agent fleet got posting scan %v, want one below the inverted floor", k)
	}
	want := eng.RunEnv(horizon, nil).Meetings()
	routes := make([]Route, 0, 6)
	for run := 0; run < 6; run++ {
		if got := eng.RunParallelEnv(horizon, 2, nil).Meetings(); !slices.Equal(got, want) {
			t.Fatalf("run %d diverged from the serial joint run", run)
		}
		routes = append(routes, eng.LastRoute())
	}
	for run, r := range routes {
		if r != RoutePairwise {
			t.Fatalf("run %d routed %v, want pairwise on every run (routes %v)", run, r, routes)
		}
	}
}

// TestJointChoiceBandEdges pins routesJoint at the band boundaries: a
// count below jointPairFloor is pairwise and one above jointPairCeiling
// is joint whatever the fleet, and both edges are inside the band,
// where the choice follows the fleet's joint scan kind.
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
	for _, tc := range []struct {
		name     string
		eng      *Engine
		meetable int
		want     bool
	}{
		{"small/below-floor", small, jointPairFloor - 1, false},
		{"small/floor", small, jointPairFloor, false},
		{"small/ceiling", small, jointPairCeiling, false},
		{"small/above-ceiling", small, jointPairCeiling + 1, true},
		{"dense/below-floor", dense, jointPairFloor - 1, false},
		{"dense/floor", dense, jointPairFloor, true},
		{"dense/ceiling", dense, jointPairCeiling, true},
		{"dense/above-ceiling", dense, jointPairCeiling + 1, true},
	} {
		if got := tc.eng.routesJoint(tc.meetable, horizon); got != tc.want {
			t.Errorf("%s: routesJoint(%d) = %v, want %v", tc.name, tc.meetable, got, tc.want)
		}
	}
}
