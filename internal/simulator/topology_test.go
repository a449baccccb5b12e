package simulator

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// randomTopology scatters n agents uniformly over a cellsX×cellsY grid
// of unit cells with the given contact radius (must be ≤ 1, the cell
// side, or neighborhood filtering would miss in-range pairs).
func randomTopology(rng *rand.Rand, n, cellsX, cellsY int, radius float64) *ContactTopology {
	ct := &ContactTopology{
		CellsX: cellsX, CellsY: cellsY,
		Cell: make([]int32, n), X: make([]float32, n), Y: make([]float32, n),
		Radius: radius,
	}
	for i := 0; i < n; i++ {
		x := rng.Float64() * float64(cellsX)
		y := rng.Float64() * float64(cellsY)
		ct.X[i], ct.Y[i] = float32(x), float32(y)
		ct.Cell[i] = int32(int(y)*cellsX + int(x))
	}
	return ct
}

// contactLayouts builds fleet under topo with each pair-state layout:
// contact-edge CSR, on which every run takes the pairwise scan, and
// triangular, on which the joint entry point takes the inverted scan —
// so each engine is the other's independent oracle.
func contactLayouts(t *testing.T, fleet []Agent, topo *ContactTopology) (csr, tri *Engine) {
	t.Helper()
	prev := SetSparseStateFloor(0)
	defer SetSparseStateFloor(prev)
	csr, err := NewEngineContact(fleet, topo)
	if err != nil {
		t.Fatal(err)
	}
	SetSparseStateFloor(1 << 30)
	if tri, err = NewEngineContact(fleet, topo); err != nil {
		t.Fatal(err)
	}
	return csr, tri
}

// inRangeByName reports whether the topology places two input indices
// within contact range, recomputed from the raw positions so tests do
// not trust the engine's own geometry.
func inRange(ct *ContactTopology, i, j int) bool {
	dx := float64(ct.X[i]) - float64(ct.X[j])
	dy := float64(ct.Y[i]) - float64(ct.Y[j])
	return dx*dx+dy*dy <= ct.Radius*ct.Radius
}

func TestContactTopologyValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	fleet := jointTestFleet(t, rng, 4)
	good := randomTopology(rng, 4, 2, 2, 1)
	if _, err := NewEngineContact(fleet, good); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	bad := map[string]func(ct *ContactTopology){
		"zero-grid":     func(ct *ContactTopology) { ct.CellsX = 0 },
		"zero-radius":   func(ct *ContactTopology) { ct.Radius = 0 },
		"short-cells":   func(ct *ContactTopology) { ct.Cell = ct.Cell[:3] },
		"short-xs":      func(ct *ContactTopology) { ct.X = ct.X[:1] },
		"cell-range":    func(ct *ContactTopology) { ct.Cell[2] = 4 },
		"cell-negative": func(ct *ContactTopology) { ct.Cell[0] = -1 },
	}
	for name, mutate := range bad {
		ct := randomTopology(rand.New(rand.NewSource(71)), 4, 2, 2, 1)
		mutate(ct)
		if _, err := NewEngineContact(fleet, ct); err == nil {
			t.Errorf("%s: invalid topology accepted", name)
		}
	}
}

// TestNewEngineContactNilTopo pins the degenerate case: a nil topology
// is plain NewEngine — all pairs in range, full pair count.
func TestNewEngineContactNilTopo(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	fleet := jointTestFleet(t, rng, 7)
	eng, err := NewEngineContact(fleet, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eng.Edges(), 7*6/2; got != want {
		t.Fatalf("nil-topology Edges() = %d, want %d", got, want)
	}
}

// TestEngineEdges checks the contact edge count against a brute-force
// O(n²) recount from the raw positions.
func TestEngineEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	fleet := jointTestFleet(t, rng, 40)
	ct := randomTopology(rng, 40, 6, 5, 0.9)
	eng, err := NewEngineContact(fleet, ct)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			if inRange(ct, i, j) {
				want++
			}
		}
	}
	if got := eng.Edges(); got != want {
		t.Fatalf("Edges() = %d, brute-force count = %d", got, want)
	}
}

// TestContactEngineMatchesFilteredDense is the contact engine's
// defining equivalence: against the all-pairs pairwise decomposition on
// the same fleet, a contact engine reports exactly the dense meetings of
// in-range pairs and nothing for out-of-range pairs — under both pair
// state layouts (triangular and contact-edge CSR), at several worker
// counts, with and without a hostile environment.
func TestContactEngineMatchesFilteredDense(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 3; trial++ {
		n := 30 + rng.Intn(20)
		fleet := jointTestFleet(t, rng, n)
		ct := randomTopology(rng, n, 5, 4, 0.8+rng.Float64()*0.2)
		dense, err := NewEngine(fleet)
		if err != nil {
			t.Fatal(err)
		}
		horizon := 900 + rng.Intn(1200)
		var env Environment
		if trial%2 == 1 {
			env = evenSlotsBlocked{}
		}
		denseRes := pairwiseRun(dense, horizon, env)
		var first string
		for _, floor := range []int{0, 1 << 30} { // CSR and triangular pair state
			prev := SetSparseStateFloor(floor)
			eng, err := NewEngineContact(fleet, ct)
			SetSparseStateFloor(prev)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 5} {
				res := eng.RunJointParallelEnv(horizon, workers, env)
				// Both layouts, every worker count: one rendering.
				if got := renderMeetings(res); first == "" {
					first = got
				} else if got != first {
					t.Fatalf("trial %d floor=%d workers=%d diverged across layouts:\n got %s\nwant %s",
						trial, floor, workers, got, first)
				}
				// And that rendering is the dense result filtered to
				// in-range pairs.
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						a, b := fleet[i].Name, fleet[j].Name
						dm, dok := denseRes.Meeting(a, b)
						cm, cok := res.Meeting(a, b)
						if !inRange(ct, i, j) {
							if cok {
								t.Fatalf("trial %d: out-of-range pair %s-%s met at %d", trial, a, b, cm.Slot)
							}
							continue
						}
						if dok != cok || (dok && dm != cm) {
							t.Fatalf("trial %d: in-range pair %s-%s dense=(%v,%v) contact=(%v,%v)",
								trial, a, b, dm, dok, cm, cok)
						}
					}
				}
			}
		}
	}
}

// TestContactRouteObserved pins the routing observability: a contact
// engine with CSR pair state reports RoutePairwise even from the joint
// entry point, since no posting kernel takes CSR state, and RunEnv
// reports the router's choice — pairwise, for a fleet this far below
// jointPairFloor.
func TestContactRouteObserved(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	fleet := jointTestFleet(t, rng, 24)
	ct := randomTopology(rng, 24, 4, 3, 1)
	prev := SetSparseStateFloor(0)
	eng, err := NewEngineContact(fleet, ct)
	SetSparseStateFloor(prev)
	if err != nil {
		t.Fatal(err)
	}
	if r := eng.LastRoute(); r != RouteNone {
		t.Fatalf("fresh engine LastRoute = %v, want none", r)
	}
	eng.RunJointParallelEnv(800, 2, nil)
	if r := eng.LastRoute(); r != RoutePairwise {
		t.Fatalf("joint run on CSR contact engine routed %v, want pairwise", r)
	}
	eng.RunEnv(800, nil)
	if r := eng.LastRoute(); r != RoutePairwise {
		t.Fatalf("RunEnv on a 24-agent contact engine routed %v, want pairwise", r)
	}
}

// TestPostingSummaryBoundary pins the posting scan across its
// summary-word boundary (one summary word per 4,096 agents). Identical
// fleets of exactly 4,096 agents (one summary word) and 4,097 (two)
// must both route inverted and meet every pair. The bridged fleet is
// the run whose walk crosses summary words from rows that start
// saturated: ids 0–63 and 4,096–4,159 share a small channel set while
// ids 64–4,095 each sit on a private channel, so a high agent's row
// words 1–63 are seeded full and its live words sit in summary words 0
// and 1. It must reproduce the pairwise decomposition at one worker
// and at three, with and without a blocking environment.
func TestPostingSummaryBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 4k-agent engines")
	}
	s := mustCyclic(t, []int{1, 2})
	for _, agents := range []int{4096, 4097} {
		fleet := make([]Agent, agents)
		for i := range fleet {
			fleet[i] = Agent{Name: fmt.Sprintf("a%05d", i), Sched: s}
		}
		eng, err := NewEngine(fleet)
		if err != nil {
			t.Fatal(err)
		}
		res := eng.RunJointParallelEnv(64, 2, nil)
		if r := eng.LastRoute(); r != RouteInverted {
			t.Fatalf("agents=%d routed %v, want %v", agents, r, RouteInverted)
		}
		// Identical constant schedules: every pair meets at its mutual
		// wake slot, so the meeting count is the full pair count.
		if got, want := res.MetCount(), agents*(agents-1)/2; got != want {
			t.Fatalf("agents=%d met %d pairs, want %d", agents, got, want)
		}
	}

	const bridged, horizon = 4160, 1024
	rng := rand.New(rand.NewSource(71))
	fleet := make([]Agent, bridged)
	for i := range fleet {
		a := Agent{Name: fmt.Sprintf("b%05d", i), Sched: mustCyclic(t, []int{100 + i})}
		if i < 64 || i >= 4096 {
			seq := make([]int, 2+rng.Intn(4))
			for k := range seq {
				seq[k] = 1 + rng.Intn(4)
			}
			a.Sched, a.Wake = mustCyclic(t, seq), rng.Intn(300)
		}
		fleet[i] = a
	}
	eng, err := NewEngine(fleet)
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range []Environment{nil, evenSlotsBlocked{}} {
		want := pairwiseRun(eng, horizon, env).Meetings()
		high := 0
		for _, m := range want {
			if m.A >= "b04096" && m.B >= "b04096" {
				high++
			}
		}
		if high == 0 {
			t.Fatalf("env=%v: fixture has no meeting inside summary word 1", env)
		}
		for _, workers := range []int{1, 3} {
			got := eng.RunJointParallelEnv(horizon, workers, env)
			if r := eng.LastRoute(); r != RouteInverted {
				t.Fatalf("bridged env=%v workers=%d routed %v, want %v", env, workers, r, RouteInverted)
			}
			if !slices.Equal(got.Meetings(), want) {
				t.Fatalf("bridged env=%v workers=%d: %d meetings diverged from the pairwise decomposition's %d",
					env, workers, got.MetCount(), len(want))
			}
		}
	}
}

// TestContactTopologyCellCount pins the cell-count check: a grid whose
// cell ids do not fit int32 is rejected with its real cell count, and
// the count itself cannot overflow, even past int64.
func TestContactTopologyCellCount(t *testing.T) {
	s := mustCyclic(t, []int{1})
	agents := []Agent{{Name: "a", Sched: s}, {Name: "b", Sched: s}}
	for _, tc := range []struct {
		x, y int
		want string
	}{
		{50_000, 50_000, "2500000000 cells"},
		{math.MaxInt, 3, "9223372036854775807x3"},
	} {
		ct := &ContactTopology{
			CellsX: tc.x, CellsY: tc.y,
			Cell: []int32{0, 189_977_653}, X: []float32{0, 1}, Y: []float32{0, 1},
			Radius: 1,
		}
		_, err := NewEngineContact(agents, ct)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%dx%d grid: err = %v, want a rejection naming %q", tc.x, tc.y, err, tc.want)
		}
	}
}

// TestContactPairSpaceIndex exercises the pair-space index/forEach
// contract directly on both layouts: forEach visits slots in ascending
// order, index agrees with forEach, and out-of-range pairs index to -1.
func TestContactPairSpaceIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	fleet := jointTestFleet(t, rng, 32)
	ct := randomTopology(rng, 32, 4, 4, 0.9)
	for _, floor := range []int{0, 1 << 30} {
		prev := SetSparseStateFloor(floor)
		eng, err := NewEngineContact(fleet, ct)
		SetSparseStateFloor(prev)
		if err != nil {
			t.Fatal(err)
		}
		ps := eng.ps
		last := -1
		slots := 0
		ps.forEach(func(p, i, j int) {
			if p <= last {
				t.Fatalf("floor=%d forEach out of order: %d after %d", floor, p, last)
			}
			last = p
			slots++
			// The triangular layout keeps slots for out-of-range pairs
			// (index filters them to -1); in-range pairs must agree.
			if got := ps.index(i, j); eng.topo.inRange2(i, j) && got != p {
				t.Fatalf("floor=%d index(%d,%d) = %d, forEach slot %d", floor, i, j, got, p)
			}
		})
		if floor == 0 {
			if slots != ps.slots || slots != eng.Edges() {
				t.Fatalf("CSR layout visited %d slots, ps.slots=%d edges=%d", slots, ps.slots, eng.Edges())
			}
		}
		// Out-of-range pairs (engine ids) must index to -1 under both
		// layouts.
		for i := 0; i < 32; i++ {
			for j := i + 1; j < 32; j++ {
				if !eng.topo.inRange2(i, j) {
					if p := ps.index(i, j); p != -1 {
						t.Fatalf("floor=%d out-of-range pair (%d,%d) indexed to %d", floor, i, j, p)
					}
				}
			}
		}
	}
}

// TestMeetablePairsContact checks the O(edges) meetable counting walk
// against the quadratic loop's answer on the same engine.
func TestMeetablePairsContact(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	fleet := jointTestFleet(t, rng, 36)
	ct := randomTopology(rng, 36, 5, 4, 1)
	eng, err := NewEngineContact(fleet, ct)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 1500
	want := 0
	for i := 0; i < 36; i++ {
		for j := i + 1; j < 36; j++ {
			if eng.pairMeetable(i, j, horizon) {
				want++
			}
		}
	}
	if got := eng.meetablePairs(horizon); got != want {
		t.Fatalf("meetablePairs = %d, quadratic recount = %d", got, want)
	}
	if eng.meetablePairs(horizon) != want {
		t.Fatal("cached meetablePairs diverged")
	}
}
