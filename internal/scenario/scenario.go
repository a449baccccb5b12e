// Package scenario turns the pairwise simulator into a network-scale
// scenario engine: it derives whole fleets (channel sets, wake times,
// churn) and deterministic environment dynamics (primary-user on/off
// processes, jammer sweeps) from a single seed, and runs them through
// simulator.Engine.
//
// Everything is a pure function of the Scenario value: channel sets,
// wake and leave slots, and every Environment decision are derived from
// Seed via SplitMix64 streams (sweep.DeriveSeed), with no sequential RNG
// state. In particular Environment.Available(ch, t) is random-access
// pure, which is what lets the engine's parallel decomposition (the
// pairwise scan behind RunParallelEnv) reproduce the joint simulation
// exactly at any worker count — the determinism invariant every
// experiment in this repository is built on.
package scenario

import (
	"fmt"
	"math/rand"
	"sort"

	"rendezvous/internal/schedule"
	"rendezvous/internal/simulator"
	"rendezvous/internal/sweep"
)

// Derivation stream tags: each class of random decision mixes its own
// tag into the seed so no two draws share a stream.
const (
	streamHub    = 101
	streamAgent  = 202
	streamPUChan = 303
	streamPUOn   = 305
	streamAlg    = 404
	streamPos    = 505
)

// mix derives a sub-seed from the scenario seed and a stream tag plus
// index, chaining the SplitMix64 finalizer.
func mix(seed uint64, stream, index int) int64 {
	return sweep.DeriveSeed(sweep.DeriveSeed(int64(seed), stream), index)
}

// Churn configures fleet dynamics: staggered joins and mid-run leaves.
type Churn struct {
	// WakeSpread staggers joins: wake slots are drawn uniformly from
	// [0, WakeSpread]. Zero means everyone wakes at slot 0.
	WakeSpread int
	// LeaveFrac is the probability that an agent powers off before the
	// horizon (its simulator.Agent gets a positive Leave slot).
	LeaveFrac float64
	// MinLife and MaxLife bound how many slots a leaving agent stays
	// active after waking. Required (≥ 1, MinLife ≤ MaxLife) when
	// LeaveFrac > 0.
	MinLife, MaxLife int
}

// PrimaryUsers configures incumbent activity: Count independent on/off
// processes, each camped on one channel of the universe. Process p is ON
// for a contiguous OnFrac-fraction of every Window-slot window, at a
// per-window position derived from the scenario seed — a deterministic,
// random-access stand-in for the usual exponential on/off PU model.
type PrimaryUsers struct {
	Count  int
	Window int     // slots per activity window; required (≥ 2) when Count > 0
	OnFrac float64 // fraction of each window the PU occupies its channel, in [0,1]
}

// Jammer configures a sweeping wide-band jammer: it camps Dwell slots on
// a channel, then steps Stride channels (default 1). With Channels set
// it sweeps that list cyclically (barrage jamming of a known block);
// otherwise it sweeps the whole universe [1, N].
type Jammer struct {
	Dwell    int
	Stride   int
	Channels []int
}

// Scenario describes a network-scale workload: a fleet whose channel
// sets, wake offsets and churn are derived from Seed, plus environment
// dynamics. The zero values of Churn/PrimaryUsers/Jammer disable the
// respective dynamics, leaving a static fleet over static spectrum.
type Scenario struct {
	Name    string // optional label, reported by String
	N       int    // channel universe [1, N]
	Agents  int    // fleet size
	K       int    // channels per agent (ignored when Block is set)
	Block   []int  // optional: every agent uses exactly this channel set (coalition case)
	Seed    uint64
	Horizon int

	Churn  Churn
	PU     PrimaryUsers
	Jammer Jammer
	// Grid places the fleet on a plane and bounds rendezvous to
	// in-range pairs (see Grid); the zero value keeps every pair in
	// range, exactly the pre-contact behavior.
	Grid Grid
}

// String renders the scenario parameters on one line.
func (sc Scenario) String() string {
	name := sc.Name
	if name == "" {
		name = "scenario"
	}
	base := fmt.Sprintf("%s: n=%d agents=%d", name, sc.N, sc.Agents)
	if len(sc.Block) > 0 {
		base += fmt.Sprintf(" block=%v", sc.Block)
	} else {
		base += fmt.Sprintf(" k=%d", sc.K)
	}
	base += fmt.Sprintf(" seed=%d horizon=%d", sc.Seed, sc.Horizon)
	if sc.Churn.WakeSpread > 0 || sc.Churn.LeaveFrac > 0 {
		base += fmt.Sprintf(" churn{spread=%d leave=%.2f}", sc.Churn.WakeSpread, sc.Churn.LeaveFrac)
	}
	if sc.PU.Count > 0 {
		base += fmt.Sprintf(" pu{count=%d window=%d on=%.2f}", sc.PU.Count, sc.PU.Window, sc.PU.OnFrac)
	}
	if sc.Jammer.Dwell > 0 {
		base += fmt.Sprintf(" jammer{dwell=%d}", sc.Jammer.Dwell)
	}
	if sc.Grid.enabled() {
		base += fmt.Sprintf(" grid{side=%g radius=%g}", sc.Grid.Side, sc.Grid.Radius)
	}
	return base
}

// Validate checks the scenario parameters and returns the first
// problem found.
func (sc Scenario) Validate() error {
	if sc.N < 1 {
		return fmt.Errorf("scenario: universe size N=%d must be positive", sc.N)
	}
	if sc.Agents < 2 {
		return fmt.Errorf("scenario: need at least 2 agents, got %d", sc.Agents)
	}
	if sc.Horizon < 1 {
		return fmt.Errorf("scenario: horizon %d must be positive", sc.Horizon)
	}
	if len(sc.Block) > 0 {
		if _, err := schedule.ValidateChannels(sc.N, sc.Block); err != nil {
			return fmt.Errorf("scenario: block: %w", err)
		}
	} else if sc.K < 1 || sc.K > sc.N {
		return fmt.Errorf("scenario: K=%d must be in [1, N=%d]", sc.K, sc.N)
	}
	if sc.Churn.WakeSpread < 0 {
		return fmt.Errorf("scenario: churn wake spread %d must be non-negative", sc.Churn.WakeSpread)
	}
	if sc.Churn.LeaveFrac < 0 || sc.Churn.LeaveFrac > 1 {
		return fmt.Errorf("scenario: churn leave fraction %v must be in [0,1]", sc.Churn.LeaveFrac)
	}
	if sc.Churn.LeaveFrac > 0 && (sc.Churn.MinLife < 1 || sc.Churn.MaxLife < sc.Churn.MinLife) {
		return fmt.Errorf("scenario: churn lifetimes [%d,%d] need 1 ≤ min ≤ max when LeaveFrac > 0",
			sc.Churn.MinLife, sc.Churn.MaxLife)
	}
	if sc.PU.Count < 0 {
		return fmt.Errorf("scenario: PU count %d must be non-negative", sc.PU.Count)
	}
	if sc.PU.Count > 0 {
		if sc.PU.Window < 2 {
			return fmt.Errorf("scenario: PU window %d must be ≥ 2", sc.PU.Window)
		}
		if sc.PU.OnFrac < 0 || sc.PU.OnFrac > 1 {
			return fmt.Errorf("scenario: PU on-fraction %v must be in [0,1]", sc.PU.OnFrac)
		}
	}
	if sc.Jammer.Dwell < 0 || sc.Jammer.Stride < 0 {
		return fmt.Errorf("scenario: jammer dwell/stride must be non-negative")
	}
	if len(sc.Jammer.Channels) > 0 {
		if _, err := schedule.ValidateChannels(sc.N, sc.Jammer.Channels); err != nil {
			return fmt.Errorf("scenario: jammer channels: %w", err)
		}
	}
	if err := sc.Grid.validate(); err != nil {
		return err
	}
	return nil
}

// Builder constructs the schedule for one agent from its channel set.
// The agent index lets randomized algorithms derive per-agent seeds.
type Builder func(set []int, agent int) (schedule.Schedule, error)

// Build derives the fleet and environment from the scenario seed. The
// same Scenario value always produces the same agents and the same
// environment decisions, whatever machine or worker count runs them.
// The returned environment is nil when the scenario has no spectrum
// dynamics (engine runs then take the plain static-spectrum path).
func (sc Scenario) Build(build Builder) ([]simulator.Agent, simulator.Environment, error) {
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	if build == nil {
		return nil, nil, fmt.Errorf("scenario: nil schedule builder")
	}
	// Population model (matches the MULTI experiment): everyone shares a
	// hub channel with probability 1/2, plus random extras — connected
	// enough that most pairs are meetable, sparse enough to exercise the
	// engine's disjoint-pair pruning. A fixed Block overrides all of it.
	//
	// Every stream is a fresh math/rand stream of its derived seed; one
	// reseeded sweep.Source stands in for a rand.NewSource per agent,
	// drawing the identical values without allocating or walking a
	// 607-word register each time.
	rng := rand.New(sweep.NewSource(mix(sc.Seed, streamHub, 0)))
	hub := 1 + rng.Intn(sc.N)
	agents := make([]simulator.Agent, sc.Agents)
	for a := range agents {
		rng.Seed(mix(sc.Seed, streamAgent, a))
		var set []int
		if len(sc.Block) > 0 {
			set, _ = schedule.ValidateChannels(sc.N, sc.Block)
		} else if rng.Intn(2) == 0 {
			set = randomSetContaining(rng, sc.N, sc.K, hub)
		} else {
			set = randomSetContaining(rng, sc.N, sc.K, 1+rng.Intn(sc.N))
		}
		wake := 0
		if sc.Churn.WakeSpread > 0 {
			wake = rng.Intn(sc.Churn.WakeSpread + 1)
		}
		leave := 0
		if sc.Churn.LeaveFrac > 0 && rng.Float64() < sc.Churn.LeaveFrac {
			life := sc.Churn.MinLife + rng.Intn(sc.Churn.MaxLife-sc.Churn.MinLife+1)
			leave = wake + life
		}
		s, err := build(set, a)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: agent %d (set %v): %w", a, set, err)
		}
		agents[a] = simulator.Agent{Name: agentName(a), Sched: s, Wake: wake, Leave: leave}
	}
	return agents, sc.environment(), nil
}

// agentName is the canonical fleet naming: a0, a1, … in build order.
func agentName(a int) string { return fmt.Sprintf("a%d", a) }

// Run builds the fleet and runs it with the given worker count (≤ 0
// means GOMAXPROCS). The engine runs the pairwise scan over the
// fleet's meetable pairs — for a gridded fleet, whose pair state is
// indexed by contact edge, its in-range ones only. The scan is exact,
// so the result is byte-identical at any worker count.
func (sc Scenario) Run(build Builder, workers int) (*simulator.Result, []simulator.Agent, error) {
	fl, err := sc.Open(build)
	if err != nil {
		return nil, nil, err
	}
	// Close after the run: the engine borrowed its hop tables from the
	// shared cache, and releasing the pins lets the cache cycle them —
	// the next Run of an equal-shaped scenario gets them back as hits.
	defer fl.Close()
	return fl.Eng.RunParallelEnv(sc.Horizon, workers, fl.Env), fl.Agents, nil
}

// randomSetContaining returns a random size-k subset of [n] containing
// the given channel, sorted ascending.
func randomSetContaining(rng *rand.Rand, n, k, contains int) []int {
	set := map[int]bool{contains: true}
	for len(set) < k {
		set[1+rng.Intn(n)] = true
	}
	out := make([]int, 0, k)
	for c := range set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// BuilderFor returns the schedule builder for a named algorithm over
// universe [1, n]: ours (the paper's flagship), general (no §3.2
// wrapper), crseq, crseq-rand, jumpstay, random. Randomized algorithms
// derive per-agent seeds from seed.
func BuilderFor(alg string, n int, seed uint64) (Builder, error) {
	switch alg {
	case "ours":
		return func(set []int, _ int) (schedule.Schedule, error) {
			return schedule.NewAsync(n, set)
		}, nil
	case "general":
		return func(set []int, _ int) (schedule.Schedule, error) {
			return schedule.NewGeneral(n, set)
		}, nil
	default:
		return baselineBuilder(alg, n, seed)
	}
}
