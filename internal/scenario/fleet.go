package scenario

import (
	"sync"

	"rendezvous/internal/simulator"
)

// Fleet is a scenario's realized run state, opened once and reused
// across many runs: the derived agents and environment plus the engine
// built over them. This is the seam long-running callers (rvserve's
// worker session pools) sit on — Scenario.Run opens a Fleet, runs once
// and closes it, while a server opens one Fleet per distinct fleet
// shape and drives many horizons through sessions on its engine.
//
// A Fleet is as concurrent-safe as its engine: Engine methods may run
// concurrently, but a Session opened on it is single-goroutine (see
// simulator.Session).
type Fleet struct {
	Agents []simulator.Agent
	// Env carries the scenario's spectrum dynamics (nil for static
	// spectrum); it is horizon-independent and shared by every run.
	Env simulator.Environment
	Eng *simulator.Engine

	// topo is the contact topology Open derived and built the engine
	// over (nil without a Grid); Graph builds from it rather than
	// deriving the positions a second time.
	topo      *simulator.ContactTopology
	graphOnce sync.Once
	graph     *ContactGraph
}

// Open derives the fleet and builds its engine for reuse. The caller
// owns the Fleet and must Close it when done so the engine's table
// pins return to the shared cache.
func (sc Scenario) Open(build Builder) (*Fleet, error) {
	agents, env, err := sc.Build(build)
	if err != nil {
		return nil, err
	}
	topo := sc.contactTopology()
	eng, err := simulator.NewEngineContact(agents, topo)
	if err != nil {
		return nil, err
	}
	return &Fleet{Agents: agents, Env: env, Eng: eng, topo: topo}, nil
}

// Graph returns the contact relation for gridded scenarios (nil
// otherwise), built lazily on first use from the topology Open derived
// — callers that never need the adjacency skip its build entirely. The
// engine renumbers its copy of the topology internally; the graph
// indexes agents in build order, exactly as Scenario.ContactGraph
// derives it.
func (f *Fleet) Graph() *ContactGraph {
	f.graphOnce.Do(func() {
		if f.topo != nil {
			f.graph = newContactGraph(f.topo)
		}
	})
	return f.graph
}

// Summarize computes discovery coverage for a run of this fleet
// straight from the run's pair state (simulator.Engine.Tally): eligible
// pairs are the engine's meetable-pair count for the horizon, and the
// met count, mean TTR and last slot come from the tally the run folded
// as it recorded meetings.
// It equals Summarize and SummarizeContact, the per-pair reference
// definitions. res must be a run of f.Eng (or a Session on it) at
// horizon; anything else is a programming error and panics.
func (f *Fleet) Summarize(res *simulator.Result, horizon int) Coverage {
	if res.Horizon != horizon {
		panic("scenario: Fleet.Summarize horizon differs from the run's")
	}
	t := f.Eng.Tally(res)
	cov := Coverage{Agents: len(f.Agents), EligiblePairs: t.Meetable, MetPairs: t.Met, LastSlot: t.LastSlot}
	if t.Met > 0 {
		cov.MeanTTR = float64(t.TTRSum) / float64(t.Met)
	}
	return cov
}

// Close releases the engine's pins on shared cache tables (see
// simulator.Engine.Close). The fleet remains usable; Close signals its
// tables may be evicted when cold.
func (f *Fleet) Close() { f.Eng.Close() }
