package simulator

import (
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

// inRange reports whether the topology places two input indices
// within contact range, recomputed from the raw positions so tests do
// not trust the engine's own geometry.
func inRange(ct *ContactTopology, i, j int) bool {
	dx := float64(ct.X[i]) - float64(ct.X[j])
	dy := float64(ct.Y[i]) - float64(ct.Y[j])
	return dx*dx+dy*dy <= ct.Radius*ct.Radius
}

// contactTwins builds fleet under topo and without a topology.
func contactTwins(t *testing.T, fleet []Agent, topo *ContactTopology) (contact, dense *Engine) {
	t.Helper()
	contact, err := NewEngineContact(fleet, topo)
	if err != nil {
		t.Fatal(err)
	}
	if dense, err = NewEngine(fleet); err != nil {
		t.Fatal(err)
	}
	return contact, dense
}

// inRangeOnly is the contact engine's oracle: full, a result of fleet
// on a topology-free engine, with the meetings of pairs that ct puts
// out of range (by the raw positions) dropped. A topology-free engine
// orders its ids by hop set, so each pair slot's engine ids are mapped
// back to input indices through the agents' names before the range
// test.
func inRangeOnly(full *Result, fleet []Agent, ct *ContactTopology) *Result {
	input := make(map[string]int, len(fleet))
	for i, a := range fleet {
		input[a.Name] = i
	}
	res := *full
	res.met = slices.Clone(full.met)
	full.ps.forEach(func(p, i, j int) {
		if res.isMet(p) && !inRange(ct, input[full.names[i]], input[full.names[j]]) {
			res.met[p>>6] &^= 1 << (p & 63)
			res.metCount--
		}
	})
	return &res
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
// defining equivalence: against the same fleet on a topology-free
// engine, run through the per-slot oracle, a contact engine (on
// contact-edge CSR state) reports exactly the dense meetings of
// in-range pairs and nothing for out-of-range pairs — at several worker
// counts, with and without a hostile environment.
func TestContactEngineMatchesFilteredDense(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 3; trial++ {
		n := 30 + rng.Intn(20)
		fleet := jointTestFleet(t, rng, n)
		ct := randomTopology(rng, n, 5, 4, 0.8+rng.Float64()*0.2)
		eng, dense := contactTwins(t, fleet, ct)
		horizon := 900 + rng.Intn(1200)
		var env Environment
		if trial%2 == 1 {
			env = evenSlotsBlocked{}
		}
		denseRes := slotRun(dense, horizon, env)
		for _, workers := range []int{1, 2, 5} {
			res := eng.RunParallelEnv(horizon, workers, env)
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
						t.Fatalf("trial %d workers=%d: in-range pair %s-%s dense=(%v,%v) contact=(%v,%v)",
							trial, workers, a, b, dm, dok, cm, cok)
					}
				}
			}
		}
	}
}

// TestContactRouteObserved pins the routing observability on a contact
// engine: RouteNone before any run, and RoutePairwise after a run from
// either entry point.
func TestContactRouteObserved(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	fleet := jointTestFleet(t, rng, 24)
	ct := randomTopology(rng, 24, 4, 3, 1)
	eng, err := NewEngineContact(fleet, ct)
	if err != nil {
		t.Fatal(err)
	}
	if r := eng.LastRoute(); r != RouteNone {
		t.Fatalf("fresh engine LastRoute = %v, want none", r)
	}
	eng.RunParallelEnv(800, 2, nil)
	if r := eng.LastRoute(); r != RoutePairwise {
		t.Fatalf("RunParallelEnv on a contact engine routed %v, want pairwise", r)
	}
	eng.RunEnv(800, nil)
	if r := eng.LastRoute(); r != RoutePairwise {
		t.Fatalf("RunEnv on a 24-agent contact engine routed %v, want pairwise", r)
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
// contract directly on a contact engine: forEach visits exactly the
// in-range pairs (by the raw positions) in ascending slot order, index
// agrees with forEach, and out-of-range pairs index to -1.
func TestContactPairSpaceIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	fleet := jointTestFleet(t, rng, 32)
	ct := randomTopology(rng, 32, 4, 4, 0.9)
	eng, err := NewEngineContact(fleet, ct)
	if err != nil {
		t.Fatal(err)
	}
	input := make(map[string]int, len(fleet))
	for i, a := range fleet {
		input[a.Name] = i
	}
	// inRangeIDs is the raw-position range test on engine ids, which
	// are cell-major, not input order.
	inRangeIDs := func(i, j int) bool { return inRange(ct, input[eng.names[i]], input[eng.names[j]]) }
	ps := eng.ps
	last, slots := -1, 0
	ps.forEach(func(p, i, j int) {
		if p <= last {
			t.Fatalf("forEach out of order: %d after %d", p, last)
		}
		last = p
		slots++
		if !inRangeIDs(i, j) {
			t.Fatalf("forEach visited out-of-range pair (%d,%d) at slot %d", i, j, p)
		}
		if got := ps.index(i, j); got != p {
			t.Fatalf("index(%d,%d) = %d, forEach slot %d", i, j, got, p)
		}
	})
	if slots != ps.slots || slots != eng.Edges() {
		t.Fatalf("forEach visited %d slots, ps.slots=%d edges=%d", slots, ps.slots, eng.Edges())
	}
	for i := 0; i < 32; i++ {
		for j := i + 1; j < 32; j++ {
			if !inRangeIDs(i, j) {
				if p := ps.index(i, j); p != -1 {
					t.Fatalf("out-of-range pair (%d,%d) indexed to %d", i, j, p)
				}
			}
		}
	}
}

// TestMeetablePairsContact checks the O(edges) meetable counting walk
// against a quadratic recount over the input fleet, with contact range
// from the raw positions: pairMeetable does not test range, so the
// walk must visit in-range pairs only.
func TestMeetablePairsContact(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	fleet := jointTestFleet(t, rng, 36)
	ct := randomTopology(rng, 36, 5, 4, 1)
	eng, err := NewEngineContact(fleet, ct)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 1500
	want, outside := 0, 0
	for i := 0; i < 36; i++ {
		for j := i + 1; j < 36; j++ {
			if !Coexist(fleet[i], fleet[j], horizon) ||
				!SetsIntersect(allChannels(fleet[i].Sched), allChannels(fleet[j].Sched)) {
				continue
			}
			if inRange(ct, i, j) {
				want++
			} else {
				outside++
			}
		}
	}
	if outside == 0 {
		t.Fatal("fixture: no meetable pair is out of range")
	}
	if got := eng.meetablePairs(horizon); got != want {
		t.Fatalf("meetablePairs = %d, quadratic recount = %d", got, want)
	}
	if eng.meetablePairs(horizon) != want {
		t.Fatal("cached meetablePairs diverged")
	}
}
