package scenario

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"rendezvous/internal/simulator"
)

// gridScenario is the shared contact-test workload: small enough to
// brute-force, large enough that the grid has interior cells.
func gridScenario(agents int) Scenario {
	return Scenario{
		Name: "grid-test", N: 16, Agents: agents, K: 3, Seed: 11, Horizon: 4000,
		Grid: Grid{Side: 8, Radius: 1.5},
	}
}

// TestGridCellsScaleWithFleet pins the cell grid to the fleet, not the
// area: a two-agent fleet on a vast plane with a unit radius must open
// and build its contact graph over a handful of cells. Uncapped, side
// 10,000 builds 10⁸ cells (over 1 GiB of per-cell arrays) and side
// 50,000 overflows the int32 cell-id range.
func TestGridCellsScaleWithFleet(t *testing.T) {
	build, err := BuilderFor("ours", 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []float64{10_000, 50_000} {
		sc := Scenario{
			Name: "vast-plane", N: 16, Agents: 2, K: 3, Seed: 5, Horizon: 64,
			Grid: Grid{Side: side, Radius: 1},
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fl, err := sc.Open(build)
		if err != nil {
			t.Fatalf("side=%v: Open: %v", side, err)
		}
		g := fl.Graph()
		runtime.ReadMemStats(&after)
		fl.Close()
		if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<20 {
			t.Fatalf("side=%v: Open+Graph allocated %d MiB, want under 16", side, got>>20)
		}
		if cx, cy := g.Cells(); cx != 2 || cy != 2 {
			t.Fatalf("side=%v: %dx%d cells, want 2x2 (⌈√agents⌉ per axis)", side, cx, cy)
		}
	}
}

func TestGridValidate(t *testing.T) {
	for name, mutate := range map[string]func(*Scenario){
		"radius-zero":      func(sc *Scenario) { sc.Grid.Radius = 0 },
		"radius-negative":  func(sc *Scenario) { sc.Grid.Radius = -1 },
		"radius-over-side": func(sc *Scenario) { sc.Grid.Radius = 9 },
		"radius-no-side":   func(sc *Scenario) { sc.Grid = Grid{Radius: 1} },
	} {
		sc := gridScenario(16)
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: invalid grid accepted (%+v)", name, sc.Grid)
		}
	}
	sc := gridScenario(16)
	if err := sc.Validate(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	if !strings.Contains(sc.String(), "grid{side=8 radius=1.5}") {
		t.Fatalf("String() missing grid config: %s", sc)
	}
	if s := (Scenario{Name: "plain", N: 4, Agents: 2, K: 1, Horizon: 10}).String(); strings.Contains(s, "grid") {
		t.Fatalf("grid-free String() mentions grid: %s", s)
	}
}

// TestContactGraphDeterministic pins position derivation: the graph is
// a pure function of the Scenario value.
func TestContactGraphDeterministic(t *testing.T) {
	sc := gridScenario(80)
	g1, err := sc.ContactGraph()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := sc.ContactGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g1.Edges() != g2.Edges() || g1.Agents() != g2.Agents() {
		t.Fatalf("graph not deterministic: %d/%d edges, %d/%d agents",
			g1.Edges(), g2.Edges(), g1.Agents(), g2.Agents())
	}
	for i := 0; i < g1.Agents(); i++ {
		a, b := g1.Contacts(i), g2.Contacts(i)
		if len(a) != len(b) {
			t.Fatalf("agent %d degree %d vs %d", i, len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("agent %d neighbor %d: %d vs %d", i, k, a[k], b[k])
			}
		}
	}
	if g, err := (Scenario{N: 4, Agents: 4, K: 2, Seed: 1, Horizon: 100}).ContactGraph(); err != nil || g != nil {
		t.Fatalf("grid-free scenario ContactGraph = (%v, %v), want (nil, nil)", g, err)
	}
}

// TestContactGraphBruteForce checks the neighbor lists, edge count and
// cell partition against an all-pairs recount from the raw positions.
func TestContactGraphBruteForce(t *testing.T) {
	sc := gridScenario(120)
	g, err := sc.ContactGraph()
	if err != nil {
		t.Fatal(err)
	}
	n := g.Agents()
	edges := 0
	for i := 0; i < n; i++ {
		row := g.Contacts(i)
		for k := 1; k < len(row); k++ {
			if row[k-1] >= row[k] {
				t.Fatalf("agent %d neighbors not ascending: %v", i, row)
			}
		}
		want := make([]int32, 0, len(row))
		for j := 0; j < n; j++ {
			if j != i && g.InRange(i, j) {
				want = append(want, int32(j))
			}
		}
		if len(row) != len(want) {
			t.Fatalf("agent %d has %d neighbors, brute force %d", i, len(row), len(want))
		}
		for k := range row {
			if row[k] != want[k] {
				t.Fatalf("agent %d neighbors %v, brute force %v", i, row, want)
			}
		}
		edges += len(row)
	}
	if g.Edges() != edges/2 {
		t.Fatalf("Edges() = %d, directed recount/2 = %d", g.Edges(), edges/2)
	}
	cx, cy := g.Cells()
	seen := make([]bool, n)
	for c := 0; c < cx*cy; c++ {
		for _, a := range g.CellAgents(c) {
			if seen[a] {
				t.Fatalf("agent %d in two cells", a)
			}
			seen[a] = true
			if g.Topology().Cell[a] != int32(c) {
				t.Fatalf("agent %d listed in cell %d, topology says %d", a, c, g.Topology().Cell[a])
			}
		}
	}
	for a, ok := range seen {
		if !ok {
			t.Fatalf("agent %d in no cell", a)
		}
	}
}

// TestScenarioRunGrid is the scenario-level equivalence: a gridded run
// reports exactly the grid-free run's meetings for in-range pairs and
// nothing for out-of-range pairs, and both Coverage paths agree on it.
func TestScenarioRunGrid(t *testing.T) {
	sc := gridScenario(64)
	sc.Churn = Churn{WakeSpread: 300, LeaveFrac: 0.2, MinLife: 1500, MaxLife: 4000}
	sc.PU = PrimaryUsers{Count: 3, Window: 256, OnFrac: 0.5}
	build, err := BuilderFor("ours", sc.N, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.ContactGraph()
	if err != nil {
		t.Fatal(err)
	}
	res, agents, err := sc.Run(build, 2)
	if err != nil {
		t.Fatal(err)
	}
	dense := sc
	dense.Grid = Grid{}
	denseRes, _, err := dense.Run(build, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range agents {
		for j := i + 1; j < len(agents); j++ {
			dm, dok := denseRes.Meeting(agents[i].Name, agents[j].Name)
			cm, cok := res.Meeting(agents[i].Name, agents[j].Name)
			if !g.InRange(i, j) {
				if cok {
					t.Fatalf("out-of-range pair %s-%s met at %d", agents[i].Name, agents[j].Name, cm.Slot)
				}
				continue
			}
			if dok != cok || (dok && dm != cm) {
				t.Fatalf("in-range pair %s-%s: dense (%v,%v) vs grid (%v,%v)",
					agents[i].Name, agents[j].Name, dm, dok, cm, cok)
			}
		}
	}
	covAll := Summarize(res, agents, sc.Horizon)
	covEdge := SummarizeContact(res, agents, sc.Horizon, g)
	if covAll != covEdge {
		t.Fatalf("Summarize %+v != SummarizeContact %+v", covAll, covEdge)
	}
	if covEdge.MetPairs == 0 {
		t.Fatal("gridded run met no pairs — geometry or routing is broken")
	}
	if covNil := SummarizeContact(res, agents, sc.Horizon, nil); covNil != covAll {
		t.Fatalf("nil-graph SummarizeContact %+v != Summarize %+v", covNil, covAll)
	}
}

// TestSparseFleet100k is the network-scale smoke run: a 100,000-agent
// contact fleet, built and simulated end to end inside the CI smoke
// budget — feasible at all only because every pair structure involved
// (graph, engine state, summary) is O(contact edges), never
// O(agents²). It also pins the route: a contact fleet has contact-edge
// pair state, and the pairwise scan walks its in-range meetable pairs.
func TestSparseFleet100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-agent fleet; skipped in -short")
	}
	if raceEnabled {
		t.Skip("100k-agent fleet; skipped under the race detector")
	}
	const fleet = 100_000
	sc := Scenario{
		Name: "smoke-100k", N: 128, Agents: fleet, K: 4, Seed: 3, Horizon: 512,
		PU:   PrimaryUsers{Count: 8, Window: 256, OnFrac: 0.5},
		Grid: Grid{Side: math.Sqrt(fleet), Radius: 2.26},
	}
	build, err := BuilderFor("ours", sc.N, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	agents, env, err := sc.Build(build)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := simulator.NewEngineContact(agents, sc.contactTopology())
	if err != nil {
		t.Fatal(err)
	}
	res := eng.RunParallelEnv(sc.Horizon, 0, env)
	if r := eng.LastRoute(); r != simulator.RoutePairwise {
		t.Fatalf("100k-agent contact fleet routed %v, want pairwise", r)
	}
	g, err := sc.ContactGraph()
	if err != nil {
		t.Fatal(err)
	}
	cov := SummarizeContact(res, agents, sc.Horizon, g)
	t.Logf("100k fleet: %d edges, %d eligible, %d met (%.1f%%), built+run+summarized in %v",
		g.Edges(), cov.EligiblePairs, cov.MetPairs, 100*cov.MetFrac(), time.Since(start))
	// Constant-density geometry: mean degree ≈ π·r² ≈ 16, so the edge
	// count must land near fleet·8 — and the candidate space must be
	// orders of magnitude below the 5·10⁹ all-pairs count.
	if g.Edges() < fleet*4 || g.Edges() > fleet*16 {
		t.Fatalf("edge count %d outside the plausible band for mean degree 16", g.Edges())
	}
	if cov.MetPairs == 0 {
		t.Fatal("no pair met — the pairwise scan found nothing")
	}
	if eng.Edges() != g.Edges() {
		t.Fatalf("engine sees %d edges, graph %d", eng.Edges(), g.Edges())
	}
}
