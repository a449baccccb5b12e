package simulator

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Contact topology: the spatial side of network scale.
//
// Every earlier engine is topology-free — any two agents hopping a
// common channel meet, so pair state (a first-meeting word per pair) is
// triangular over all n(n−1)/2 pairs and walks straight into an
// O(agents²) memory wall (≈4 TB of hit state at one million agents).
// A real cognitive radio network is spatially sparse: only in-range
// radios can rendezvous. ContactTopology captures that as a uniform
// grid of square cells with side equal to the contact radius, so an
// agent's potential partners all live in its 3×3 cell neighborhood and
// the exact in-range relation (Euclidean distance ≤ radius) is a CSR
// edge list of O(contact edges), not O(pairs).
//
// Engines built with a topology (NewEngineContact) reorder agents
// cell-major internally: each cell's agents occupy one contiguous id
// range, so a 3×3 neighborhood is three contiguous id ranges (one per
// cell row) and the forward-edge build walks exactly those. Pair state
// is indexed by contact-edge id (CSR over forward neighbors) at every
// fleet size, and a run scans the in-range meetable pairs only.

// ContactTopology places each agent of a fleet on a grid of square
// cells and bounds rendezvous to pairs within Radius of each other.
// Indices follow the agent slice handed to NewEngineContact. It is
// immutable after construction and safe to share across engines.
type ContactTopology struct {
	// CellsX, CellsY are the grid dimensions; an agent in grid cell
	// (x, y) has Cell[i] = y*CellsX + x.
	CellsX, CellsY int
	Cell           []int32
	// X, Y are the agent positions the exact radius test uses. Cell
	// membership must be consistent with them (cell side ≥ Radius), or
	// in-range pairs straddling a cell boundary are missed.
	X, Y []float32
	// Radius is the contact radius: pair (i, j) can rendezvous iff
	// their Euclidean distance is at most Radius.
	Radius float64
}

// validate checks the topology against a fleet size.
func (ct *ContactTopology) validate(n int) error {
	if ct.CellsX < 1 || ct.CellsY < 1 {
		return fmt.Errorf("simulator: contact grid %dx%d must be at least 1x1", ct.CellsX, ct.CellsY)
	}
	if ct.Radius <= 0 {
		return fmt.Errorf("simulator: contact radius %v must be positive", ct.Radius)
	}
	if len(ct.Cell) != n || len(ct.X) != n || len(ct.Y) != n {
		return fmt.Errorf("simulator: contact topology covers %d/%d/%d agents, fleet has %d",
			len(ct.Cell), len(ct.X), len(ct.Y), n)
	}
	// Count in 128 bits: the product of two ints can overflow even int64.
	hi, cells := bits.Mul64(uint64(ct.CellsX), uint64(ct.CellsY))
	if hi != 0 || cells > math.MaxInt32 {
		return fmt.Errorf("simulator: contact grid %dx%d has %.0f cells, past the %d that int32 cell ids address",
			ct.CellsX, ct.CellsY, float64(ct.CellsX)*float64(ct.CellsY), math.MaxInt32)
	}
	for i, c := range ct.Cell {
		if c < 0 || uint64(c) >= cells {
			return fmt.Errorf("simulator: agent %d in cell %d outside grid of %d cells", i, c, cells)
		}
	}
	return nil
}

// pairSpace maps unordered agent pairs (i < j, engine ids) to dense
// pair-state slots. Without a contact topology it is the classic
// triangular index over all pairs; with one it admits only contact
// edges and indexes them by forward-edge id. Slot order is
// lexicographic in (i, j) in both, which the pairwise scan's block
// ring relies on.
type pairSpace struct {
	n     int
	slots int
	// rowBase holds the triangular row offsets, nil under a contact
	// topology. There fwdBase and fwdAdj are the forward-edge CSR: edge
	// e of agent i, fwdBase[i] ≤ e < fwdBase[i+1], is pair
	// (i, fwdAdj[e]) with state slot e, neighbors ascending in each row.
	rowBase []int
	fwdBase []int32
	fwdAdj  []int32
}

// triangularSpace is the pair space of a topology-free fleet of n
// agents.
func triangularSpace(n int) *pairSpace {
	rowBase := make([]int, n)
	for i := 1; i < n; i++ {
		rowBase[i] = rowBase[i-1] + n - i
	}
	return &pairSpace{n: n, slots: n * (n - 1) / 2, rowBase: rowBase}
}

// index returns the state slot of pair (i < j), or -1 when the pair
// is not a contact edge (out of range).
func (ps *pairSpace) index(i, j int) int {
	if ps.rowBase != nil {
		return ps.rowBase[i] + j - i - 1
	}
	if k, ok := slices.BinarySearch(ps.fwdAdj[ps.fwdBase[i]:ps.fwdBase[i+1]], int32(j)); ok {
		return int(ps.fwdBase[i]) + k
	}
	return -1
}

// forEach visits every pair slot in slot order (lexicographic (i, j)):
// all pairs without a contact topology, the contact edges with one.
func (ps *pairSpace) forEach(f func(p, i, j int)) {
	if ps.rowBase != nil {
		p := 0
		for i := 0; i < ps.n; i++ {
			for j := i + 1; j < ps.n; j++ {
				f(p, i, j)
				p++
			}
		}
		return
	}
	for i := 0; i < ps.n; i++ {
		for e := ps.fwdBase[i]; e < ps.fwdBase[i+1]; e++ {
			f(int(e), i, int(ps.fwdAdj[e]))
		}
	}
}

// Route identifies which evaluation strategy a run took, for tests,
// benches, and telemetry to observe. Every run takes the pairwise scan,
// so a run records RoutePairwise; RouteNone marks an engine that has
// not run yet.
type Route int32

const (
	// RouteNone: no run has started on this engine yet.
	RouteNone Route = iota
	// RoutePairwise: independent per-pair scans over the horizon.
	RoutePairwise
)

// String names the route for test failures and logs.
func (r Route) String() string {
	switch r {
	case RouteNone:
		return "none"
	case RoutePairwise:
		return "pairwise"
	}
	return fmt.Sprintf("route(%d)", int32(r))
}

// LastRoute reports the evaluation strategy of the engine's most
// recently started run (RouteNone before any run).
func (e *Engine) LastRoute() Route { return Route(e.lastRoute.Load()) }

func (e *Engine) setRoute(r Route) { e.lastRoute.Store(int32(r)) }

// Edges returns the number of in-range contact pairs, or the full pair
// count n(n−1)/2 for a topology-free engine — the denominator of the
// candidate-reduction measurements.
func (e *Engine) Edges() int { return e.ps.slots }

// NewEngineContact is NewEngine under a contact topology: only pairs
// within topo.Radius of each other can rendezvous, whatever channels
// they hop. Agents are reordered cell-major internally (the Result API
// is name-keyed, so callers never observe the permutation), and pair
// state is indexed by contact edge (CSR), O(contact edges) at every
// fleet size, and every run scans the in-range meetable pairs only.
func NewEngineContact(agents []Agent, topo *ContactTopology) (*Engine, error) {
	if topo == nil {
		return NewEngine(agents)
	}
	if err := topo.validate(len(agents)); err != nil {
		return nil, err
	}
	// Cell-major permutation, stable by input index so construction is
	// deterministic in the caller's order.
	order := inputOrder(len(agents))
	sort.SliceStable(order, func(a, b int) bool { return topo.Cell[order[a]] < topo.Cell[order[b]] })
	e, err := newEngine(permuted(agents, order))
	if err != nil {
		return nil, err
	}
	e.ps = contactSpace(topo, order)
	return e, nil
}

// contactSpace builds a contact fleet's pair space: each agent's
// forward (higher-id) in-range neighbors, found by scanning its 3×3
// cell neighborhood. Engine id i is input agent order[i], so a
// neighborhood is three contiguous id rows. The rows ascend in cell
// order and each holds ascending ids, so every agent's neighbor list
// comes out sorted.
func contactSpace(topo *ContactTopology, order []int) *pairSpace {
	n := len(order)
	cellsX, cellsY := topo.CellsX, topo.CellsY
	// Cell CSR: ids are cell-sorted, so each cell is one contiguous run.
	cellStart := make([]int32, cellsX*cellsY+1)
	for _, c := range topo.Cell {
		cellStart[c+1]++
	}
	for c := 1; c < len(cellStart); c++ {
		cellStart[c] += cellStart[c-1]
	}
	radius2 := topo.Radius * topo.Radius
	fwdBase := make([]int32, n+1)
	var adj []int32
	for i, from := range order {
		fwdBase[i] = int32(len(adj))
		c := int(topo.Cell[from])
		cx, cy := c%cellsX, c/cellsX
		x, y := topo.X[from], topo.Y[from]
		xLo, xHi := max(cx-1, 0), min(cx+1, cellsX-1)
		for yy := max(cy-1, 0); yy <= min(cy+1, cellsY-1); yy++ {
			hi := cellStart[yy*cellsX+xHi+1]
			for j := max(cellStart[yy*cellsX+xLo], int32(i+1)); j < hi; j++ {
				dx := float64(x - topo.X[order[j]])
				dy := float64(y - topo.Y[order[j]])
				if dx*dx+dy*dy <= radius2 {
					adj = append(adj, j)
				}
			}
		}
	}
	fwdBase[n] = int32(len(adj))
	return &pairSpace{n: n, slots: len(adj), fwdBase: fwdBase, fwdAdj: adj}
}
