package proptest

import (
	"fmt"
	"math/rand"

	"rendezvous/internal/scenario"
	"rendezvous/internal/schedule"
	"rendezvous/internal/simulator"
)

// FleetCase is one generated network-scale instance: a full Scenario
// (fleet derivation plus churn/PU/jammer dynamics, all seed-derived)
// and the algorithm building each agent's schedule.
type FleetCase struct {
	Alg string
	Sc  scenario.Scenario
}

// String implements Case.
func (c FleetCase) String() string {
	return fmt.Sprintf("alg=%s %s", c.Alg, c.Sc)
}

// FleetAlgs is the roster scenario fleets draw from (the algorithms
// scenario.BuilderFor supports).
var FleetAlgs = []string{"ours", "general", "crseq", "crseq-rand", "jumpstay", "random"}

// GenFleetCase draws a small scenario — the brute-force oracle engine
// is O(agents²·horizon), so instances stay deliberately tiny while the
// dynamics space (churn, primary users, jammer, all combinations) is
// explored broadly.
func GenFleetCase(rng *rand.Rand) FleetCase {
	horizon := 512 + rng.Intn(3584)
	sc := scenario.Scenario{
		Name:    "prop",
		N:       genFleetUniverse(rng),
		Agents:  3 + rng.Intn(8),
		Seed:    rng.Uint64(),
		Horizon: horizon,
	}
	sc.K = 1 + rng.Intn(min(4, sc.N))
	if rng.Intn(2) == 0 {
		sc.Churn = scenario.Churn{
			WakeSpread: rng.Intn(horizon / 2),
			LeaveFrac:  rng.Float64(),
			MinLife:    1 + rng.Intn(horizon/4),
			MaxLife:    horizon/4 + rng.Intn(horizon),
		}
	}
	if rng.Intn(2) == 0 {
		sc.PU = scenario.PrimaryUsers{
			Count:  1 + rng.Intn(4),
			Window: 8 + rng.Intn(120),
			OnFrac: rng.Float64(),
		}
	}
	if rng.Intn(3) == 0 {
		sc.Jammer = scenario.Jammer{Dwell: 1 + rng.Intn(64), Stride: rng.Intn(3)}
	}
	if rng.Intn(3) == 0 {
		sc.Grid = genGrid(rng)
	}
	return FleetCase{Alg: FleetAlgs[rng.Intn(len(FleetAlgs))], Sc: sc}
}

// genFleetUniverse draws a fleet's universe size: mostly 4–32
// channels, where small channel sets overlap often, and one draw in
// four 65–160, so channels c and c+64 can share a hop-mask bit (see
// schedule.HopMasker) and the pairwise scan meets windows its masks
// call hot although no pair co-hops there.
func genFleetUniverse(rng *rand.Rand) int {
	if rng.Intn(4) == 0 {
		return 65 + rng.Intn(96)
	}
	return 4 + rng.Intn(29)
}

// genGrid draws a contact grid a few radii across: small enough that
// the fleet stays connected often, large enough that most draws have
// several cells and a mix of in-range and out-of-range pairs.
func genGrid(rng *rand.Rand) scenario.Grid {
	side := 2 + rng.Float64()*4
	return scenario.Grid{Side: side, Radius: side * (0.25 + rng.Float64()*0.5)}
}

// GenContactFleetCase is GenFleetCase with a contact grid always
// present, so the contact-engine clauses are exercised every iteration
// rather than on the one-in-three draw.
func GenContactFleetCase(rng *rand.Rand) FleetCase {
	c := GenFleetCase(rng)
	if c.Sc.Grid == (scenario.Grid{}) {
		c.Sc.Grid = genGrid(rng)
	}
	return c
}

// Build derives the fleet and environment.
func (c FleetCase) Build() ([]simulator.Agent, simulator.Environment, error) {
	build, err := scenario.BuilderFor(c.Alg, c.Sc.N, c.Sc.Seed)
	if err != nil {
		return nil, nil, err
	}
	return c.Sc.Build(build)
}

// CheckFleetEngines is the engine-equivalence oracle: Run and
// RunParallel must reproduce the brute-force oracle (ReferenceRun, the
// one per-slot transcription of the slot model) meeting for meeting,
// under whatever dynamics the scenario has. RunParallel runs at
// several worker counts because each count splits the pair list into
// different chunks, and at one worker, whose single chunk shares one
// block ring across the whole list. When the scenario carries a
// contact grid, the contact engine must additionally reproduce the
// oracle restricted to in-range pairs, under both pair-state layouts.
func CheckFleetEngines(c FleetCase) error {
	agents, env, err := c.Build()
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	want := ReferenceRun(agents, c.Sc.Horizon, env)
	eng, err := simulator.NewEngine(agents)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if err := sameMeetings(want, ResultMeetings(eng.RunEnv(c.Sc.Horizon, env))); err != nil {
		return fmt.Errorf("Run vs oracle: %w", err)
	}
	for _, workers := range []int{1, 2, 3, 5} {
		if err := sameMeetings(want, ResultMeetings(eng.RunParallelEnv(c.Sc.Horizon, workers, env))); err != nil {
			return fmt.Errorf("parallel engine (workers=%d) vs oracle: %w", workers, err)
		}
	}
	// Session reuse: re-running through a Session recycles the result
	// arrays and every pooled scratch buffer from the runs above. The
	// recycled state must be invisible — each re-run, at each
	// chunk-inducing worker count, must still reproduce the oracle
	// meeting for meeting.
	sess := eng.Session()
	defer sess.Close()
	for _, workers := range []int{2, 5} {
		sess.Reset()
		if err := sameMeetings(want, ResultMeetings(sess.RunParallelEnv(c.Sc.Horizon, workers, env))); err != nil {
			return fmt.Errorf("session re-run (workers=%d) vs oracle: %w", workers, err)
		}
	}
	// Eligibility across horizons: the engine caches the meetable count
	// once for every horizon past the fleet's last wake, and counts anew
	// at or below it, and each run sizes its pair list from that count.
	// The session runs at the last wake, just past it and at the full
	// horizon must each reproduce the oracle's meetings below that
	// horizon, which are exactly the meetings a reference run to it
	// records.
	lastWake := fleetLastWake(agents)
	for _, h := range []int{max(lastWake, 1), lastWake + 1, c.Sc.Horizon} {
		if h > c.Sc.Horizon {
			continue // past the oracle's horizon
		}
		if err := sameMeetings(meetingsBefore(want, h), ResultMeetings(sess.RunParallelEnv(h, 2, env))); err != nil {
			return fmt.Errorf("session re-run at horizon %d (last wake %d) vs oracle: %w", h, lastWake, err)
		}
	}
	if err := checkCancelledRerun(c, eng, env, want); err != nil {
		return err
	}
	return checkContactEngine(c, agents, env, want)
}

// fleetLastWake returns the latest wake slot in the fleet.
func fleetLastWake(agents []simulator.Agent) int {
	w := 0
	for _, a := range agents {
		w = max(w, a.Wake)
	}
	return w
}

// meetingsBefore returns the meetings of want at slots below horizon.
func meetingsBefore(want map[[2]string]simulator.Meeting, horizon int) map[[2]string]simulator.Meeting {
	out := make(map[[2]string]simulator.Meeting, len(want))
	for key, m := range want {
		if m.Slot < horizon {
			out[key] = m
		}
	}
	return out
}

// checkCancelledRerun is the cancellation clause: cancel a session run
// at a seed-derived block window, then re-run on the very same session.
// The cancelled run may only record meetings the oracle has —
// byte-identical per pair, the partial-prefix contract — and the re-run
// must reproduce the oracle exactly, proving a cancelled run leaves the
// session, every pooled scratch buffer, and the cache-pin bookkeeping
// in the same reusable state as a completed one.
func checkCancelledRerun(c FleetCase, eng *simulator.Engine, env simulator.Environment, want map[[2]string]simulator.Meeting) error {
	sess := eng.Session()
	defer sess.Close()
	for _, workers := range []int{2, 5} {
		canc := &simulator.Canceler{}
		canc.CancelAfterPolls(1 + int64(c.Sc.Seed%7))
		sess.SetCanceler(canc)
		partial := ResultMeetings(sess.RunParallelEnv(c.Sc.Horizon, workers, env))
		for key, m := range partial {
			if w, ok := want[key]; !ok || w != m {
				return fmt.Errorf("cancelled run (workers=%d) recorded %v=%+v, oracle has %+v", workers, key, m, want[key])
			}
		}
		sess.SetCanceler(nil)
		sess.Reset()
		if err := sameMeetings(want, ResultMeetings(sess.RunParallelEnv(c.Sc.Horizon, workers, env))); err != nil {
			return fmt.Errorf("post-cancel session re-run (workers=%d) vs oracle: %w", workers, err)
		}
	}
	return nil
}

// checkContactEngine is the contact-engine clause of CheckFleetEngines:
// for gridded scenarios the contact engine, on contact-edge CSR pair
// state, must reproduce the brute-force oracle filtered to in-range
// pairs — exactly those, no others — through Run and at the
// chunk-inducing worker counts.
func checkContactEngine(c FleetCase, agents []simulator.Agent, env simulator.Environment, want map[[2]string]simulator.Meeting) error {
	graph, err := c.Sc.ContactGraph()
	if err != nil {
		return fmt.Errorf("contact graph: %w", err)
	}
	if graph == nil {
		return nil
	}
	// sc.Build returns agents in derivation order, the same order the
	// graph indexes positions by — so agents[i] sits at graph node i.
	idx := make(map[string]int, len(agents))
	for i, a := range agents {
		idx[a.Name] = i
	}
	filtered := make(map[[2]string]simulator.Meeting, len(want))
	for key, m := range want {
		if graph.InRange(idx[key[0]], idx[key[1]]) {
			filtered[key] = m
		}
	}
	ceng, err := simulator.NewEngineContact(agents, graph.Topology())
	if err != nil {
		return fmt.Errorf("contact engine: %w", err)
	}
	if err := sameMeetings(filtered, ResultMeetings(ceng.RunEnv(c.Sc.Horizon, env))); err != nil {
		return fmt.Errorf("contact engine vs in-range oracle: %w", err)
	}
	for _, workers := range []int{2, 5} {
		if err := sameMeetings(filtered, ResultMeetings(ceng.RunParallelEnv(c.Sc.Horizon, workers, env))); err != nil {
			return fmt.Errorf("contact engine (workers=%d) vs in-range oracle: %w", workers, err)
		}
	}
	// The scan on CSR state must honor the cancelled-subset +
	// clean-re-run contract too.
	if err := checkCancelledRerun(c, ceng, env, filtered); err != nil {
		return fmt.Errorf("contact engine: %w", err)
	}
	return nil
}

// CheckFleetPermutation is the agent-permutation metamorphic oracle:
// shuffling the order agents are handed to the engine must not change
// any meeting (names, slots, channels, TTRs). The shuffled fleet also
// runs at one worker and at two on an engine of its own: NewEngine
// numbers equal hop sets in input order, so the shuffle moves ids, and
// with them the pair list's order and chunks.
func CheckFleetPermutation(c FleetCase) error {
	agents, env, err := c.Build()
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	perm := append([]simulator.Agent(nil), agents...)
	rng := rand.New(rand.NewSource(int64(c.Sc.Seed)))
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	a, err := runMeetings(agents, c.Sc.Horizon, env)
	if err != nil {
		return err
	}
	b, err := runMeetings(perm, c.Sc.Horizon, env)
	if err != nil {
		return err
	}
	if err := sameMeetings(a, b); err != nil {
		return fmt.Errorf("agent permutation changed meetings: %w", err)
	}
	eng, err := simulator.NewEngine(perm)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	for _, workers := range []int{1, 2} {
		if err := sameMeetings(a, ResultMeetings(eng.RunParallelEnv(c.Sc.Horizon, workers, env))); err != nil {
			return fmt.Errorf("agent permutation changed parallel meetings (workers=%d): %w", workers, err)
		}
	}
	return nil
}

// CheckFleetRelabel is the channel-relabeling metamorphic oracle:
// applying a common injective relabeling π to every agent's hop
// sequence (and translating environment decisions through π⁻¹) must
// leave meeting structure unchanged — same pairs, same slots, same
// TTRs, channels mapped by π.
func CheckFleetRelabel(c FleetCase) error {
	agents, env, err := c.Build()
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	pi, inv := relabeling(agents, int64(c.Sc.Seed))
	relabeled := make([]simulator.Agent, len(agents))
	for i, a := range agents {
		a.Sched = NewRelabeled(a.Sched, pi)
		relabeled[i] = a
	}
	var renv simulator.Environment
	if env != nil {
		renv = relabeledEnv{inner: env, inv: inv}
	}
	want, err := runMeetings(agents, c.Sc.Horizon, env)
	if err != nil {
		return err
	}
	got, err := runMeetings(relabeled, c.Sc.Horizon, renv)
	if err != nil {
		return err
	}
	if len(want) != len(got) {
		return fmt.Errorf("relabeling changed meeting count: %d → %d", len(want), len(got))
	}
	for key, m := range want {
		g, ok := got[key]
		if !ok {
			return fmt.Errorf("relabeling lost meeting %v", key)
		}
		if g.Slot != m.Slot || g.TTR != m.TTR || g.Channel != pi[m.Channel] {
			return fmt.Errorf("relabeling changed meeting %v: %+v → %+v (want channel %d)", key, m, g, pi[m.Channel])
		}
	}
	return nil
}

// relabeling builds a seed-derived injective map π over the union of
// the fleet's complete hop sets (into a shuffled, sparse value range,
// exercising the engine's dense remap), plus its inverse.
func relabeling(agents []simulator.Agent, seed int64) (pi, inv map[int]int) {
	seen := map[int]bool{}
	var union []int
	for _, a := range agents {
		for _, c := range schedule.AllChannels(a.Sched) {
			if !seen[c] {
				seen[c] = true
				union = append(union, c)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	targets := rng.Perm(3 * (len(union) + 1))
	pi = make(map[int]int, len(union))
	inv = make(map[int]int, len(union))
	for i, c := range union {
		v := 1 + targets[i] // sparse positive values, order-scrambling
		pi[c] = v
		inv[v] = c
	}
	return pi, inv
}

// CheckFleetTimeShift is the common-time-shift metamorphic oracle:
// waking the whole fleet d slots later (and delaying the environment
// by d) shifts every meeting slot by exactly d and changes nothing
// else.
func CheckFleetTimeShift(c FleetCase) error {
	agents, env, err := c.Build()
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	const d = 97
	shifted := make([]simulator.Agent, len(agents))
	for i, a := range agents {
		a.Wake += d
		if a.Leave > 0 {
			a.Leave += d
		}
		shifted[i] = a
	}
	var senv simulator.Environment
	if env != nil {
		senv = shiftedEnv{inner: env, d: d}
	}
	want, err := runMeetings(agents, c.Sc.Horizon, env)
	if err != nil {
		return err
	}
	got, err := runMeetings(shifted, c.Sc.Horizon+d, senv)
	if err != nil {
		return err
	}
	if len(want) != len(got) {
		return fmt.Errorf("time shift changed meeting count: %d → %d", len(want), len(got))
	}
	for key, m := range want {
		g, ok := got[key]
		if !ok {
			return fmt.Errorf("time shift lost meeting %v", key)
		}
		if g.Slot != m.Slot+d || g.TTR != m.TTR || g.Channel != m.Channel {
			return fmt.Errorf("time shift by %d changed meeting %v: %+v → %+v", d, key, m, g)
		}
	}
	return nil
}

// CheckScenarioDeterminism asserts the scenario layer's core contract:
// Build is a pure function of the Scenario value, the environment is
// random-access pure, and runs agree at any worker count.
func CheckScenarioDeterminism(c FleetCase) error {
	a1, env1, err := c.Build()
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	a2, env2, err := c.Build()
	if err != nil {
		return fmt.Errorf("rebuild: %w", err)
	}
	if len(a1) != len(a2) {
		return fmt.Errorf("rebuild changed fleet size: %d → %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i].Name != a2[i].Name || a1[i].Wake != a2[i].Wake || a1[i].Leave != a2[i].Leave ||
			!sameSet(a1[i].Sched.Channels(), a2[i].Sched.Channels()) {
			return fmt.Errorf("rebuild changed agent %d: %+v vs %+v", i, a1[i], a2[i])
		}
	}
	if (env1 == nil) != (env2 == nil) {
		return fmt.Errorf("rebuild changed environment presence")
	}
	if env1 != nil {
		// Random-access purity: probe a scattered grid twice, in two
		// different orders; decisions must agree call for call.
		rng := rand.New(rand.NewSource(int64(c.Sc.Seed)))
		type probe struct{ ch, t int }
		probes := make([]probe, 64)
		for i := range probes {
			probes[i] = probe{ch: 1 + rng.Intn(c.Sc.N), t: rng.Intn(c.Sc.Horizon)}
		}
		first := make([]bool, len(probes))
		for i, p := range probes {
			first[i] = env1.Available(p.ch, p.t)
		}
		for i := len(probes) - 1; i >= 0; i-- {
			if env2.Available(probes[i].ch, probes[i].t) != first[i] {
				return fmt.Errorf("environment impure at (ch=%d, t=%d)", probes[i].ch, probes[i].t)
			}
		}
	}
	eng, err := simulator.NewEngine(a1)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	serial := ResultMeetings(eng.RunParallelEnv(c.Sc.Horizon, 1, env1))
	wide := ResultMeetings(eng.RunParallelEnv(c.Sc.Horizon, 8, env1))
	if err := sameMeetings(serial, wide); err != nil {
		return fmt.Errorf("worker count changed result: %w", err)
	}
	return nil
}

// CheckFleetSummarize is the coverage oracle: Fleet.Summarize, which
// reads eligible pairs off the engine's meetable count and folds the
// rest over the run's met bitset, must equal both per-pair reference
// definitions — Summarize (all pairs, name lookups) and
// SummarizeContact (contact edges) — field for field. Every fleet is
// checked through one reused session across four horizons, so the
// meetable cache and the recycled met bitset are on the hook too: half
// and all of the scenario's horizon, and the fleet's last wake and one
// past it, on either side of the point past which eligibility stops
// changing.
func CheckFleetSummarize(c FleetCase) error {
	build, err := scenario.BuilderFor(c.Alg, c.Sc.N, c.Sc.Seed)
	if err != nil {
		return err
	}
	fl, err := c.Sc.Open(build)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	defer fl.Close()
	lastWake := fleetLastWake(fl.Agents)
	sess := fl.Eng.Session()
	for _, h := range []int{c.Sc.Horizon / 2, c.Sc.Horizon, lastWake, lastWake + 1} {
		res := sess.RunParallelEnv(h, 2, fl.Env)
		want := scenario.Summarize(res, fl.Agents, h)
		if got := scenario.SummarizeContact(res, fl.Agents, h, fl.Graph()); got != want {
			return fmt.Errorf("horizon=%d: SummarizeContact %+v, Summarize %+v", h, got, want)
		}
		if got := fl.Summarize(res, h); got != want {
			return fmt.Errorf("horizon=%d: Fleet.Summarize %+v, Summarize %+v", h, got, want)
		}
	}
	return nil
}

// runMeetings runs agents on a fresh engine (Run: the scan at one
// worker) and returns the canonical meeting map.
func runMeetings(agents []simulator.Agent, horizon int, env simulator.Environment) (map[[2]string]simulator.Meeting, error) {
	eng, err := simulator.NewEngine(agents)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return ResultMeetings(eng.RunEnv(horizon, env)), nil
}

// sameMeetings compares two meeting maps and describes the first
// divergence.
func sameMeetings(want, got map[[2]string]simulator.Meeting) error {
	if len(want) != len(got) {
		return fmt.Errorf("meeting count %d vs %d", len(want), len(got))
	}
	for key, m := range want {
		g, ok := got[key]
		if !ok {
			return fmt.Errorf("missing meeting %v (want %+v)", key, m)
		}
		if g != m {
			return fmt.Errorf("meeting %v: %+v vs %+v", key, m, g)
		}
	}
	return nil
}

// ShrinkFleet greedily reduces a failing fleet case while fails keeps
// failing: fewer agents, dynamics zeroed one subsystem at a time, the
// contact grid dropped, shorter horizon, smaller channel sets, smaller
// universe.
func ShrinkFleet(c FleetCase, fails func(FleetCase) bool) FleetCase {
	for improved := true; improved; {
		improved = false
		if c.Sc.Agents > 2 {
			cand := c
			cand.Sc.Agents--
			if fails(cand) {
				c, improved = cand, true
				continue
			}
		}
		if c.Sc.Churn != (scenario.Churn{}) {
			cand := c
			cand.Sc.Churn = scenario.Churn{}
			if fails(cand) {
				c, improved = cand, true
			}
		}
		if c.Sc.PU != (scenario.PrimaryUsers{}) {
			cand := c
			cand.Sc.PU = scenario.PrimaryUsers{}
			if fails(cand) {
				c, improved = cand, true
			}
		}
		if c.Sc.Jammer.Dwell != 0 || c.Sc.Jammer.Stride != 0 || len(c.Sc.Jammer.Channels) > 0 {
			cand := c
			cand.Sc.Jammer = scenario.Jammer{}
			if fails(cand) {
				c, improved = cand, true
			}
		}
		if c.Sc.Grid != (scenario.Grid{}) {
			// Drop the cells: a failure that survives without the contact
			// grid is a plain engine bug, not a topology one.
			cand := c
			cand.Sc.Grid = scenario.Grid{}
			if fails(cand) {
				c, improved = cand, true
			}
		}
		if h := c.Sc.Horizon / 2; h >= 64 {
			cand := c
			cand.Sc.Horizon = h
			if fails(cand) {
				c, improved = cand, true
			}
		}
		if c.Sc.K > 1 {
			cand := c
			cand.Sc.K--
			if fails(cand) {
				c, improved = cand, true
			}
		}
		if n := c.Sc.N / 2; n >= c.Sc.K && n >= 2 {
			cand := c
			cand.Sc.N = n
			if fails(cand) {
				c, improved = cand, true
			}
		}
	}
	return c
}
