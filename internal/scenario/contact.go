package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rendezvous/internal/schedule"
	"rendezvous/internal/simulator"
	"rendezvous/internal/sweep"
)

// Contact geometry: the spatial side of a scenario.
//
// A Grid places the fleet on a Side×Side plane, uniformly at random
// per agent from the scenario seed (stream streamPos — positions are
// as deterministic as channel sets and churn), and bounds rendezvous
// to pairs within Radius of each other. The plane is partitioned into
// square cells of side ≥ Radius, so every in-range pair lives in
// adjacent cells and the engine finds the contact edges by scanning
// each agent's 3×3 cell neighborhood, never all pairs.
// The zero Grid disables contacts entirely: the scenario is the
// classic all-pairs workload and nothing downstream changes.

// Grid configures the contact geometry of a scenario. The zero value
// disables it (every pair in range, the pre-contact behavior).
type Grid struct {
	// Side is the edge length of the square deployment area; agents are
	// placed uniformly at random over it. Zero disables the grid.
	Side float64
	// Radius is the contact radius: only pairs at Euclidean distance
	// ≤ Radius can rendezvous. Required in (0, Side] when Side > 0.
	Radius float64
}

// enabled reports whether the scenario has contact geometry.
func (g Grid) enabled() bool { return g.Side > 0 }

// cells returns the grid dimension per axis for a fleet of agents: the
// largest cell count whose cell side Side/cells still covers Radius, so
// a 3×3 cell neighborhood always contains the full contact disc, capped
// at ⌈√agents⌉ so the per-cell arrays grow with the fleet rather than
// the area. The cap only makes cells larger, which keeps the cover;
// the exact radius test decides every contact, so the contact graph is
// the same at any cell count.
func (g Grid) cells(agents int) int {
	c := min(g.Side/g.Radius, math.Ceil(math.Sqrt(float64(agents))))
	return max(int(c), 1)
}

// validate checks the grid parameters.
func (g Grid) validate() error {
	if !g.enabled() {
		if g.Radius != 0 {
			return fmt.Errorf("scenario: grid radius %v without a side (set Grid.Side)", g.Radius)
		}
		return nil
	}
	if g.Radius <= 0 || g.Radius > g.Side {
		return fmt.Errorf("scenario: grid radius %v must be in (0, side=%v]", g.Radius, g.Side)
	}
	return nil
}

// contactTopology derives the fleet's positions and cell assignment
// from the scenario seed, or nil when the grid is disabled. Cells are
// computed from the stored float32 coordinates (the ones the engine's
// exact radius test reads), so cell membership is always consistent
// with the positions.
func (sc Scenario) contactTopology() *simulator.ContactTopology {
	if !sc.Grid.enabled() {
		return nil
	}
	cells := sc.Grid.cells(sc.Agents)
	cellSide := sc.Grid.Side / float64(cells)
	ct := &simulator.ContactTopology{
		CellsX: cells, CellsY: cells,
		Cell:   make([]int32, sc.Agents),
		X:      make([]float32, sc.Agents),
		Y:      make([]float32, sc.Agents),
		Radius: sc.Grid.Radius,
	}
	rng := rand.New(sweep.NewSource(0)) // reseeded per agent, as in Build
	for a := 0; a < sc.Agents; a++ {
		rng.Seed(mix(sc.Seed, streamPos, a))
		x := float32(rng.Float64() * sc.Grid.Side)
		y := float32(rng.Float64() * sc.Grid.Side)
		ct.X[a], ct.Y[a] = x, y
		ct.Cell[a] = int32(cellIndex(y, cellSide, cells)*cells + cellIndex(x, cellSide, cells))
	}
	return ct
}

// cellIndex maps a stored coordinate to its cell along one axis,
// clamped so float32 rounding at the far edge cannot escape the grid.
func cellIndex(v float32, cellSide float64, cells int) int {
	c := int(float64(v) / cellSide)
	if c >= cells {
		c = cells - 1
	}
	if c > 0 && float64(v) < float64(c)*cellSide {
		c-- // division rounded up across a cell boundary
	}
	return c
}

// ContactGraph is the scenario's contact relation in build (input)
// order: per-agent neighbor lists, per-cell agent lists, and the raw
// topology the engine consumes. It is immutable after construction.
type ContactGraph struct {
	topo     *simulator.ContactTopology
	adjBase  []int32 // agent -> first neighbor index, len agents+1
	adj      []int32 // neighbor agent ids, ascending within each row
	cellBase []int32 // cell -> first member index, len cells+1
	cellIDs  []int32 // cell members in ascending agent id order
}

// ContactGraph derives the scenario's contact graph, or (nil, nil)
// when the grid is disabled. The same Scenario value always yields the
// same graph; positions come from the streamPos stream of Seed exactly
// as Run's engine sees them.
func (sc Scenario) ContactGraph() (*ContactGraph, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	ct := sc.contactTopology()
	if ct == nil {
		return nil, nil
	}
	return newContactGraph(ct), nil
}

// newContactGraph builds the adjacency and cell CSRs from a topology.
func newContactGraph(ct *simulator.ContactTopology) *ContactGraph {
	n := len(ct.Cell)
	cells := ct.CellsX * ct.CellsY
	g := &ContactGraph{
		topo:     ct,
		cellBase: make([]int32, cells+1),
		cellIDs:  make([]int32, n),
	}
	for _, c := range ct.Cell {
		g.cellBase[c+1]++
	}
	for c := 0; c < cells; c++ {
		g.cellBase[c+1] += g.cellBase[c]
	}
	fill := make([]int32, cells)
	copy(fill, g.cellBase[:cells])
	for i := 0; i < n; i++ { // ascending i keeps each cell's members sorted
		c := ct.Cell[i]
		g.cellIDs[fill[c]] = int32(i)
		fill[c]++
	}
	// Adjacency over the 3×3 neighborhood: count, prefix-sum, fill —
	// no per-row reallocation at fleet scale.
	deg := make([]int32, n)
	g.eachNeighbor(func(i, j int32) { deg[i]++ })
	g.adjBase = make([]int32, n+1)
	for i := 0; i < n; i++ {
		g.adjBase[i+1] = g.adjBase[i] + deg[i]
	}
	g.adj = make([]int32, g.adjBase[n])
	pos := make([]int32, n)
	copy(pos, g.adjBase[:n])
	g.eachNeighbor(func(i, j int32) {
		g.adj[pos[i]] = j
		pos[i]++
	})
	for i := 0; i < n; i++ { // cell rows interleave; each row needs one sort
		row := g.adj[g.adjBase[i]:g.adjBase[i+1]]
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
	}
	return g
}

// eachNeighbor invokes f(i, j) for every ordered in-range pair i ≠ j,
// by walking each agent's 3×3 cell neighborhood.
func (g *ContactGraph) eachNeighbor(f func(i, j int32)) {
	ct := g.topo
	for i := 0; i < len(ct.Cell); i++ {
		c := int(ct.Cell[i])
		cx, cy := c%ct.CellsX, c/ct.CellsX
		for dy := -1; dy <= 1; dy++ {
			yy := cy + dy
			if yy < 0 || yy >= ct.CellsY {
				continue
			}
			xLo, xHi := max(cx-1, 0), min(cx+1, ct.CellsX-1)
			lo := g.cellBase[yy*ct.CellsX+xLo]
			hi := g.cellBase[yy*ct.CellsX+xHi+1]
			for m := lo; m < hi; m++ {
				if j := g.cellIDs[m]; int(j) != i && g.InRange(i, int(j)) {
					f(int32(i), j)
				}
			}
		}
	}
}

// Agents returns the number of agents in the graph.
func (g *ContactGraph) Agents() int { return len(g.topo.Cell) }

// Contacts returns agent i's in-range neighbors in ascending agent id
// order. The slice aliases the graph; callers must not modify it.
func (g *ContactGraph) Contacts(i int) []int32 {
	return g.adj[g.adjBase[i]:g.adjBase[i+1]]
}

// InRange reports whether agents i and j are within contact radius,
// with the same float32 arithmetic the engine's radius test uses.
func (g *ContactGraph) InRange(i, j int) bool {
	ct := g.topo
	dx := float64(ct.X[i] - ct.X[j])
	dy := float64(ct.Y[i] - ct.Y[j])
	return dx*dx+dy*dy <= ct.Radius*ct.Radius
}

// Edges returns the number of unordered in-range pairs.
func (g *ContactGraph) Edges() int { return len(g.adj) / 2 }

// Cells returns the grid dimensions (CellsX, CellsY).
func (g *ContactGraph) Cells() (int, int) { return g.topo.CellsX, g.topo.CellsY }

// CellAgents returns the agents placed in grid cell c (row-major cell
// id), in ascending agent id order. The slice aliases the graph.
func (g *ContactGraph) CellAgents(c int) []int32 {
	return g.cellIDs[g.cellBase[c]:g.cellBase[c+1]]
}

// Topology returns the engine-consumable topology backing the graph.
func (g *ContactGraph) Topology() *simulator.ContactTopology { return g.topo }

// SummarizeContact computes Coverage by walking the contact graph's
// edges — O(contact edges) where Summarize's all-pairs loop is
// O(agents²), which is the difference between milliseconds and hours
// at 100k+ agents. With a nil graph it falls back to Summarize.
func SummarizeContact(res *simulator.Result, agents []simulator.Agent, horizon int, g *ContactGraph) Coverage {
	if g == nil {
		return Summarize(res, agents, horizon)
	}
	cov := Coverage{Agents: len(agents)}
	sets := make([][]int, len(agents))
	for i := range agents {
		sets[i] = schedule.AllChannels(agents[i].Sched)
	}
	var sum int64
	for i := range agents {
		for _, j32 := range g.Contacts(i) {
			j := int(j32)
			if j < i {
				continue // each unordered edge once
			}
			if !simulator.Coexist(agents[i], agents[j], horizon) || !simulator.SetsIntersect(sets[i], sets[j]) {
				continue
			}
			cov.EligiblePairs++
			m, ok := res.Meeting(agents[i].Name, agents[j].Name)
			if !ok {
				continue
			}
			cov.MetPairs++
			sum += int64(m.TTR)
			if m.Slot > cov.LastSlot {
				cov.LastSlot = m.Slot
			}
		}
	}
	if cov.MetPairs > 0 {
		cov.MeanTTR = float64(sum) / float64(cov.MetPairs)
	}
	return cov
}
