// Package rendezvous is a Go implementation of "Deterministic Blind
// Rendezvous in Cognitive Radio Networks" (Chen, Russell, Samanta,
// Sundaram — ICDCS 2014): deterministic channel-hopping schedules that
// guarantee any two radios with overlapping channel subsets of [n] meet
// on a common channel in O(|S_A|·|S_B|·log log n) slots under arbitrary
// wake offsets — and in O(1) slots when their subsets are identical —
// plus the prior-work baselines (CRSEQ, Jump-Stay), the §5 one-bit-
// beacon protocols, the §4 lower-bound explorers, the appendix one-round
// SDP approximation, and a slot-level simulator to evaluate them all.
//
// # Quick start
//
//	n := 1024                                  // channel universe [1..n]
//	a, _ := rendezvous.New(n, []int{3, 90, 512})
//	b, _ := rendezvous.New(n, []int{90, 700})
//	ttr, ok := rendezvous.PairTTR(a, b, 0, 17, 1_000_000)
//	// ok == true; ttr is the slot count until both radios hop channel 90
//
// Schedules are deterministic and anonymous: they depend only on the
// channel set and n, never on an identity, so any two devices running
// this code discover each other with zero coordination.
package rendezvous

import (
	"rendezvous/internal/scenario"
	"rendezvous/internal/schedule"
	"rendezvous/internal/simulator"
)

// Schedule is a deterministic channel-hopping schedule σ : N → S ⊆ [n].
// Channel reports the 1-based channel hopped at slot t (t ≥ 0), Period a
// cycle length, and Channels a copy of the underlying channel set.
// Implementations are pure functions of t and safe for concurrent
// readers.
type Schedule = schedule.Schedule

// New returns the paper's flagship construction for the given channel
// subset of [1, n]: the Theorem-3 epoch schedule wrapped with the §3.2
// symmetric reduction. Two agents with overlapping sets rendezvous in
// O(|S_A|·|S_B|·log log n) slots regardless of wake offsets; agents with
// identical sets rendezvous in at most 6 slots.
func New(n int, channels []int) (Schedule, error) {
	return schedule.NewAsync(n, channels)
}

// NewGeneral returns the bare Theorem-3 schedule (no symmetric wrapper):
// asynchronous rendezvous in O(|S_A|·|S_B|·log log n) slots. Use New
// unless you are studying the construction itself.
func NewGeneral(n int, channels []int) (Schedule, error) {
	return schedule.NewGeneral(n, channels)
}

// NewSymmetric applies the §3.2 reduction to any schedule: identical
// channel sets then meet in O(1) slots at min(S), all other guarantees
// degrade by at most 12×.
func NewSymmetric(inner Schedule) Schedule {
	return schedule.NewSymmetric(inner)
}

// Phase describes one segment of a dynamic spectrum timeline: from local
// slot FromSlot the agent has access to exactly Channels.
type Phase = schedule.Phase

// NewDynamic returns a schedule for an agent whose available spectrum
// changes over time (incumbents arriving or leaving). Each phase runs
// the flagship construction for its set; rendezvous guarantees hold
// within each phase.
func NewDynamic(n int, phases []Phase) (Schedule, error) {
	return schedule.NewDynamic(n, phases)
}

// Agent is a simulation participant: a named schedule plus the global
// slot at which it wakes up and, optionally, a positive Leave slot at
// which it powers off (churn).
type Agent = simulator.Agent

// Meeting records the first rendezvous between two agents in a
// simulation run.
type Meeting = simulator.Meeting

// Result holds the outcome of a simulation run: each pair's
// first-meeting slot, one word per pair, from which a Meeting's
// channel and TTR are derived when it is read.
type Result = simulator.Result

// Engine is the slot-synchronous multi-agent simulator. RunParallel
// computes every pair's first meeting on a worker pool via an exact
// decomposition — one pairwise scan per meetable pair, which skips the
// windows where the pair hops no common channel — and Run is
// RunParallel at one worker; the Result is identical at any worker
// count. RunEnv and RunParallelEnv are the same runs under an
// Environment.
type Engine = simulator.Engine

// Environment models external spectrum dynamics (primary users, jammer
// sweeps): a rendezvous only counts at slots where the common channel
// is available. Implementations must be pure functions of (channel,
// slot) — that purity is what keeps Run and RunParallel identical.
type Environment = simulator.Environment

// Session is a reusable run context on an Engine (Engine.Session): it
// recycles the result's pair words across runs, so re-running a fleet
// shape with new horizons or environments allocates ~nothing at steady
// state. The engine compiles a schedule's hop table once a horizon
// spans two of its periods — borrowing from a process-wide cache shared
// with every other engine — and Session re-runs then cost only the scan
// itself. Not safe for concurrent use; open one session per goroutine.
type Session = simulator.Session

// Scenario describes a network-scale workload: a fleet whose channel
// sets, wake offsets and churn are derived deterministically from a
// seed, plus environment dynamics (primary users, jammer). Build
// derives the fleet, Run executes it; the same Scenario value always
// yields the same Result at any worker count.
type Scenario = scenario.Scenario

// Churn configures fleet dynamics for a Scenario: staggered joins and
// mid-run leaves.
type Churn = scenario.Churn

// PrimaryUsers configures deterministic incumbent on/off activity for a
// Scenario.
type PrimaryUsers = scenario.PrimaryUsers

// Jammer configures a sweeping jammer for a Scenario: whole-universe
// sweeps, or barrage jamming of a fixed channel list.
type Jammer = scenario.Jammer

// Coverage summarizes fleet discovery after a scenario run: eligible
// pairs, met pairs, and the TTR profile.
type Coverage = scenario.Coverage

// Grid places a Scenario fleet on a square plane and bounds rendezvous
// to pairs within a contact radius; the zero value keeps every pair in
// range. Positions derive from the scenario seed like everything else.
type Grid = scenario.Grid

// ContactGraph is a gridded scenario's contact relation: per-agent
// neighbor lists, per-cell agent lists, and the edge count — the
// denominator of the contact engine's candidate-reduction
// measurements.
type ContactGraph = scenario.ContactGraph

// ContactTopology places explicit agents on a cell grid for
// NewEngineContact; scenarios build theirs automatically via Grid.
type ContactTopology = simulator.ContactTopology

// Route identifies which evaluation strategy an engine run took (see
// Engine.LastRoute); every route computes the identical Result.
type Route = simulator.Route

// ScheduleBuilder constructs the schedule for one agent of a scenario
// fleet from its channel set; the agent index seeds randomized
// algorithms.
type ScheduleBuilder = scenario.Builder

// ScenarioBuilder returns the ScheduleBuilder for a named algorithm
// (ours, general, crseq, crseq-rand, jumpstay, random) over universe
// [1, n].
func ScenarioBuilder(alg string, n int, seed uint64) (ScheduleBuilder, error) {
	return scenario.BuilderFor(alg, n, seed)
}

// Summarize computes discovery Coverage for a finished scenario run.
func Summarize(res *Result, agents []Agent, horizon int) Coverage {
	return scenario.Summarize(res, agents, horizon)
}

// SummarizeContact is Summarize over a contact graph's edges —
// O(contact edges) instead of O(agents²), the only viable summary at
// network scale. A nil graph falls back to Summarize.
func SummarizeContact(res *Result, agents []Agent, horizon int, g *ContactGraph) Coverage {
	return scenario.SummarizeContact(res, agents, horizon, g)
}

// NewEngine validates agents (unique names, non-negative wakes) and
// returns a simulation engine.
func NewEngine(agents []Agent) (*Engine, error) {
	return simulator.NewEngine(agents)
}

// NewEngineContact is NewEngine under a contact topology: only pairs
// within the contact radius can rendezvous. Pair state scales with
// contact edges instead of agents² at every fleet size, and every run
// takes the pairwise scan over the in-range meetable pairs. A nil
// topology is plain NewEngine.
func NewEngineContact(agents []Agent, topo *ContactTopology) (*Engine, error) {
	return simulator.NewEngineContact(agents, topo)
}

// PairTTR measures the time-to-rendezvous of two schedules: a wakes at
// wakeA, b at wakeB, and the returned count is in slots after the later
// wake. ok is false if they do not meet within horizon slots.
func PairTTR(a, b Schedule, wakeA, wakeB, horizon int) (ttr int, ok bool) {
	return simulator.PairTTR(a, b, wakeA, wakeB, horizon)
}

// AlignWake adapts a global-clock schedule (the beacon protocols, whose
// permutations are functions of absolute time) to the engine's
// local-clock convention; see NewBeaconFresh.
func AlignWake(inner Schedule, wake int) Schedule {
	return simulator.AlignWake(inner, wake)
}

// Compile unrolls a schedule into a flat one-period hop table so that
// repeated evaluation (offset sweeps, long simulations) costs an array
// load per slot. The table is verified against a second period before
// it is trusted; schedules whose period is too large to materialize, or
// only eventually valid (NewDynamic with several phases), are returned
// unchanged — compilation is always a transparent optimization, never a
// semantic change. The simulator applies it automatically; call it
// directly when driving schedules with your own evaluation loop.
func Compile(s Schedule) Schedule {
	return schedule.Compile(s)
}

// FillBlock fills dst[i] = s.Channel(start+i) for every i, using the
// schedule's native block evaluator when it has one and per-slot calls
// otherwise. Custom evaluation loops should prefer this over calling
// Channel slot by slot.
func FillBlock(s Schedule, dst []int, start int) {
	schedule.FillBlock(s, dst, start)
}
