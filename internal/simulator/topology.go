package simulator

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// Contact topology: the spatial side of network scale.
//
// Every earlier engine is topology-free — any two agents hopping a
// common channel meet, so pair state (met bits, first-hit slots) is
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
// is indexed by contact-edge id (CSR over forward neighbors) from a
// size threshold up and by the classic triangular layout below it.
// Both layouts produce byte-identical Results, but the layout also
// picks the kernel: triangular state lets joint runs take the inverted
// posting scan (its met rows pre-mark out-of-range pairs), while CSR
// state has no met rows, so every run on it takes the pairwise scan
// over the in-range meetable pairs. The threshold bounds the
// triangular state's O(agents²) memory; speed no longer argues for
// keeping fleets below it on the inverted scan. On 2,048- and
// 3,000-agent contact fleets (`ours`, 32 channels, K=4, seed 7, side
// 64 with the radius set for a mean contact degree of 60 — 55 and 56
// measured, after edge effects — horizon 8,192, 8 primary users, one
// engine worker, best of 3 warm runs, 2-vCPU Xeon VM, go1.24.0) the
// inverted scan on triangular state took 466 and 890 ms, the
// window-major pairwise scan on CSR state 95 and 149 ms, and the
// per-pair scan it replaced 498 and 736 ms.

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

// sparseStateFloor is the fleet size at which a contact engine switches
// its pair state from the dense triangular layout to contact-edge CSR.
// Below it the triangular arrays are small enough to afford, and joint
// runs on them can take the inverted scan; from it they would grow
// O(agents²) while the edge state stays O(contact edges), and runs go
// pairwise. Both layouts produce byte-identical Results; atomic only
// so tests can force either layout.
var sparseStateFloor atomic.Int64

const defaultSparseStateFloor = 4096

func init() { sparseStateFloor.Store(defaultSparseStateFloor) }

// SetSparseStateFloor repoints the fleet size from which contact
// engines use edge-indexed pair state, returning the previous floor.
// It exists for equivalence tests, which check the pairwise scan on
// CSR state against the inverted scan on triangular state; the layout
// is a memory/performance choice that never changes a Result.
func SetSparseStateFloor(agents int) (previous int) {
	return int(sparseStateFloor.Swap(int64(agents)))
}

// topoState is the engine-resident contact structure, in engine
// (cell-major) agent order: a CSR of each cell's agents plus a CSR of
// each agent's forward (higher-id) in-range neighbors. The forward
// lists double as the CSR pair-state index: edge e of agent i is
// pair (i, fwdAdj[e]) with state slot e.
type topoState struct {
	cellsX, cellsY int
	radius2        float64
	cellOf         []int32 // engine id -> cell
	cellStart      []int32 // cell -> first engine id (ids are cell-contiguous), len cells+1
	x, y           []float32
	fwdBase        []int32 // engine id -> first forward-edge index, len n+1
	fwdAdj         []int32 // forward neighbor ids, ascending within each row
}

// edges returns the number of in-range pairs.
func (t *topoState) edges() int { return len(t.fwdAdj) }

// inRange2 is the exact radius test on engine ids.
func (t *topoState) inRange2(i, j int) bool {
	dx := float64(t.x[i] - t.x[j])
	dy := float64(t.y[i] - t.y[j])
	return dx*dx+dy*dy <= t.radius2
}

// edgeOf returns the forward-edge index of pair (i < j), or -1 when
// the pair is out of contact range.
func (t *topoState) edgeOf(i, j int) int {
	row := t.fwdAdj[t.fwdBase[i]:t.fwdBase[i+1]]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < int32(j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo] == int32(j) {
		return int(t.fwdBase[i]) + lo
	}
	return -1
}

// pairSpace maps unordered agent pairs (i < j, engine ids) to dense
// pair-state slots. The dense layout is the classic triangular index
// over all pairs; the sparse layout admits only contact edges and
// indexes them by forward-edge id. Slot order is lexicographic in
// (i, j) under both layouts, which the sharded merge relies on.
type pairSpace struct {
	n     int
	slots int
	// rowBase selects the dense layout; nil means sparse. topo is set
	// whenever a contact topology applies — with rowBase it filters
	// out-of-range pairs to -1 while keeping triangular slots, without
	// it the forward-edge CSR is the slot index itself.
	rowBase []int
	topo    *topoState
}

// index returns the state slot of pair (i < j), or -1 when the pair
// cannot rendezvous under the contact topology (out of range).
func (ps *pairSpace) index(i, j int) int {
	if ps.rowBase != nil {
		if ps.topo != nil && !ps.topo.inRange2(i, j) {
			return -1
		}
		return ps.rowBase[i] + j - i - 1
	}
	return ps.topo.edgeOf(i, j)
}

// forEach visits every pair slot in slot order (lexicographic (i, j)).
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
	t := ps.topo
	for i := 0; i < ps.n; i++ {
		for e := t.fwdBase[i]; e < t.fwdBase[i+1]; e++ {
			f(int(e), i, int(t.fwdAdj[e]))
		}
	}
}

// Route identifies which evaluation strategy a run took. The choice is
// purely about speed and memory — every route computes the identical
// Result (the proptest oracles pin this) — but silent routing has
// burned us before (fleets past a since-removed 4,096-agent posting cap
// quietly fell off the fast path), so the engine records its last
// decision for tests, benches, and telemetry to observe. The decision
// is a pure function of the fleet, the horizon, and the entry point
// called.
type Route int32

const (
	// RouteNone: no run has completed on this engine yet.
	RouteNone Route = iota
	// RoutePairwise: independent per-pair scans over the horizon.
	RoutePairwise
	// RouteInverted: the time-sharded posting-list scan, at any fleet
	// size whose met template fits the posting scan's memory budget.
	RouteInverted
)

// String names the route for test failures and logs.
func (r Route) String() string {
	switch r {
	case RouteNone:
		return "none"
	case RoutePairwise:
		return "pairwise"
	case RouteInverted:
		return "inverted"
	}
	return fmt.Sprintf("route(%d)", int32(r))
}

// LastRoute reports the evaluation strategy of the engine's most
// recently started run (RouteNone before any run). Concurrent runs
// race benignly on the record: each stores its own decision.
func (e *Engine) LastRoute() Route { return Route(e.lastRoute.Load()) }

func (e *Engine) setRoute(r Route) { e.lastRoute.Store(int32(r)) }

// Edges returns the number of in-range contact pairs, or the full pair
// count n(n−1)/2 for a topology-free engine — the denominator of the
// candidate-reduction measurements.
func (e *Engine) Edges() int {
	if e.topo != nil {
		return e.topo.edges()
	}
	n := len(e.agents)
	return n * (n - 1) / 2
}

// NewEngineContact is NewEngine under a contact topology: only pairs
// within topo.Radius of each other can rendezvous, whatever channels
// they hop. Agents are reordered cell-major internally (the Result API
// is name-keyed, so callers never observe the permutation). Pair state
// is triangular below SetSparseStateFloor (4,096 agents by default) and
// contact-edge CSR from it, and the layout picks the kernel: joint runs
// on triangular state take the inverted posting scan (RouteInverted),
// while every run on CSR state takes the pairwise scan (RoutePairwise)
// over the in-range meetable pairs, with pair state O(contact edges).
// CSR state is for fleets whose triangular state would not fit.
func NewEngineContact(agents []Agent, topo *ContactTopology) (*Engine, error) {
	if topo == nil {
		return NewEngine(agents)
	}
	if err := topo.validate(len(agents)); err != nil {
		return nil, err
	}
	// Cell-major permutation, stable by input index so construction is
	// deterministic in the caller's order.
	order := make([]int, len(agents))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return topo.Cell[order[a]] < topo.Cell[order[b]] })
	perm := make([]Agent, len(agents))
	for to, from := range order {
		perm[to] = agents[from]
	}
	e, err := NewEngine(perm)
	if err != nil {
		return nil, err
	}
	n := len(agents)
	cells := topo.CellsX * topo.CellsY
	t := &topoState{
		cellsX:    topo.CellsX,
		cellsY:    topo.CellsY,
		radius2:   topo.Radius * topo.Radius,
		cellOf:    make([]int32, n),
		cellStart: make([]int32, cells+1),
		x:         make([]float32, n),
		y:         make([]float32, n),
	}
	for to, from := range order {
		t.cellOf[to] = topo.Cell[from]
		t.x[to] = topo.X[from]
		t.y[to] = topo.Y[from]
	}
	// Cell CSR: ids are cell-sorted, so each cell is one contiguous run.
	for _, c := range t.cellOf {
		t.cellStart[c+1]++
	}
	for c := 0; c < cells; c++ {
		t.cellStart[c+1] += t.cellStart[c]
	}
	t.buildForwardEdges()
	e.topo = t
	if int64(n) >= sparseStateFloor.Load() {
		e.ps = &pairSpace{n: n, slots: t.edges(), topo: t}
	} else {
		e.ps.topo = t // triangular slots, but out-of-range pairs filtered
	}
	return e, nil
}

// buildForwardEdges materializes each agent's forward (higher-id)
// in-range neighbors by scanning the 3×3 cell neighborhood: three
// contiguous id rows, thanks to the cell-major renumbering.
func (t *topoState) buildForwardEdges() {
	n := len(t.cellOf)
	t.fwdBase = make([]int32, n+1)
	var adj []int32
	for i := 0; i < n; i++ {
		t.fwdBase[i] = int32(len(adj))
		c := int(t.cellOf[i])
		cx, cy := c%t.cellsX, c/t.cellsX
		for dy := -1; dy <= 1; dy++ {
			yy := cy + dy
			if yy < 0 || yy >= t.cellsY {
				continue
			}
			xLo, xHi := max(cx-1, 0), min(cx+1, t.cellsX-1)
			lo := t.cellStart[yy*t.cellsX+xLo]
			hi := t.cellStart[yy*t.cellsX+xHi+1]
			for j := lo; j < hi; j++ {
				if int(j) > i && t.inRange2(i, int(j)) {
					adj = append(adj, j)
				}
			}
		}
		// Rows are visited in ascending cell order and cells hold
		// ascending ids, so each row's ids are ascending — but rows
		// interleave, so the full list still needs one sort.
		row := adj[t.fwdBase[i]:]
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
	}
	t.fwdBase[n] = int32(len(adj))
	t.fwdAdj = adj
}
