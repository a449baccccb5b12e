// Command rvsim runs a multi-agent blind-rendezvous simulation and
// prints every pairwise first meeting, or a fleet-scale scenario and
// prints its discovery summary.
//
// Explicit agents are specified as name=channels[@wake], e.g.:
//
//	rvsim -n 64 -alg ours -horizon 200000 \
//	      -agent base=10,20,30 -agent drone=20,40@25 -agent sensor=30,40@90
//
// Scenario mode generates the whole fleet and its environment dynamics
// deterministically from -seed instead (see -h for presets):
//
//	rvsim -scenario churn-pu -agents 256 -n 128 -horizon 65536 -seed 3
//
// Algorithms: ours (default), general (no §3.2 wrapper), crseq,
// crseq-rand, jumpstay, random, sweep, beacon-fresh, beacon-walk
// (scenario mode supports the first six).
//
// -parallel bounds the simulation engine's worker pool (0 = one per
// CPU); the engine's workers claim chunks of the fleet's meetable
// pairs, and the reported meetings are identical at every setting.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"rendezvous"
)

// agentSpec is one parsed -agent flag.
type agentSpec struct {
	name     string
	channels []int
	wake     int
}

// specList collects repeated -agent flags.
type specList []agentSpec

func (s *specList) String() string { return fmt.Sprintf("%d agents", len(*s)) }

func (s *specList) Set(v string) error {
	spec, err := parseAgent(v)
	if err != nil {
		return err
	}
	*s = append(*s, spec)
	return nil
}

func parseAgent(v string) (agentSpec, error) {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return agentSpec{}, fmt.Errorf("agent spec %q: want name=c1,c2[@wake]", v)
	}
	chanPart, wakePart, hasWake := strings.Cut(rest, "@")
	spec := agentSpec{name: name}
	for _, c := range strings.Split(chanPart, ",") {
		ch, err := strconv.Atoi(strings.TrimSpace(c))
		if err != nil {
			return agentSpec{}, fmt.Errorf("agent %q: channel %q: %v", name, c, err)
		}
		spec.channels = append(spec.channels, ch)
	}
	if hasWake {
		w, err := strconv.Atoi(wakePart)
		if err != nil || w < 0 {
			return agentSpec{}, fmt.Errorf("agent %q: wake %q must be a non-negative integer", name, wakePart)
		}
		spec.wake = w
	}
	return spec, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rvsim:", err)
		os.Exit(1)
	}
}

// scenarioPresets maps -scenario names onto their environment dynamics;
// -agents, -churn and -pu refine them.
var scenarioPresets = map[string]string{
	"calm":     "static fleet, static spectrum",
	"churn":    "staggered wakes, 25% of agents power off mid-run",
	"pu":       "8 primary users each occupying a channel 50% of every 1024-slot window",
	"churn-pu": "churn and primary users combined (the NETWORK experiment setting)",
	"jammer":   "a wide-band jammer sweeping the universe, 64 slots per channel",
	"sparse":   "churn-pu on a contact graph: √agents-side plane, radius 2.26 (≈16 neighbors each)",
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rvsim", flag.ContinueOnError)
	n := fs.Int("n", 64, "channel universe size")
	alg := fs.String("alg", "ours", "schedule algorithm")
	horizon := fs.Int("horizon", 1_000_000, "simulation slots")
	seed := fs.Uint64("seed", 1, "seed for randomized algorithms / beacon / scenario")
	parallel := fs.Int("parallel", 0, "simulation engine workers (0 = one per CPU)")
	scenarioName := fs.String("scenario", "", "run a generated fleet scenario: calm, churn, pu, churn-pu, jammer, sparse")
	fleetSize := fs.Int("agents", 64, "fleet size in scenario mode")
	churn := fs.Float64("churn", -1, "scenario mode: override leave fraction, in [0,1]")
	pu := fs.Int("pu", -1, "scenario mode: override primary-user count (≥ 0)")
	var specs specList
	fs.Var(&specs, "agent", "agent spec name=c1,c2[@wake] (repeatable)")
	fs.Usage = func() {
		o := fs.Output()
		fmt.Fprintf(o, "usage: rvsim [flags]\n\n")
		fmt.Fprintf(o, "explicit agents:\n")
		fmt.Fprintf(o, "  rvsim -n 64 -agent base=10,20,30 -agent drone=20,40@25\n\n")
		fmt.Fprintf(o, "generated fleet scenario (deterministic from -seed):\n")
		fmt.Fprintf(o, "  rvsim -scenario churn-pu -agents 256 -n 128 -horizon 65536 -seed 3\n")
		fmt.Fprintf(o, "  rvsim -scenario jammer -agents 64 -churn 0.5 -pu 4\n\npresets:\n")
		for _, name := range []string{"calm", "churn", "pu", "churn-pu", "jammer", "sparse"} {
			fmt.Fprintf(o, "  %-9s %s\n", name, scenarioPresets[name])
		}
		fmt.Fprintf(o, "\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Validate shared numeric flags up front so both modes reject
	// nonsense the same way instead of failing deep in the engine.
	if *horizon < 1 {
		return fmt.Errorf("-horizon %d: need at least 1 slot", *horizon)
	}
	if *n < 1 {
		return fmt.Errorf("-n %d: channel universe must be non-empty", *n)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: worker count must be ≥ 0 (0 = one per CPU)", *parallel)
	}
	if *scenarioName != "" {
		if len(specs) > 0 {
			return fmt.Errorf("-scenario generates its own fleet; drop the -agent flags")
		}
		return runScenario(out, *scenarioName, *alg, *n, *fleetSize, *horizon, *parallel, *seed, *churn, *pu)
	}
	if *churn >= 0 || *pu >= 0 || *fleetSize != 64 {
		if len(specs) > 0 {
			return fmt.Errorf("-agents/-churn/-pu require -scenario (explicit -agent fleets configure agents directly)")
		}
		return fmt.Errorf("-agents/-churn/-pu require -scenario")
	}
	if len(specs) < 2 {
		return fmt.Errorf("need at least two -agent specs (or -scenario; see -h)")
	}

	agents := make([]rendezvous.Agent, 0, len(specs))
	src := rendezvous.NewBeaconSource(*seed)
	for i, sp := range specs {
		sched, err := buildSchedule(*alg, *n, sp, src, *seed+uint64(i))
		if err != nil {
			return fmt.Errorf("agent %q: %w", sp.name, err)
		}
		agents = append(agents, rendezvous.Agent{Name: sp.name, Sched: sched, Wake: sp.wake})
	}
	eng, err := rendezvous.NewEngine(agents)
	if err != nil {
		return err
	}
	// A session recycles the engine's run state; Close releases the hop
	// tables the engine borrowed from the shared cache.
	sess := eng.Session()
	defer sess.Close()
	res := sess.RunParallel(*horizon, *parallel)

	fmt.Fprintf(out, "universe n=%d  algorithm=%s  horizon=%d slots\n\n", *n, *alg, *horizon)
	meetings := res.Meetings()
	for _, m := range meetings {
		fmt.Fprintf(out, "%-10s ↔ %-10s met at slot %-8d on channel %-4d (TTR %d)\n",
			m.A, m.B, m.Slot, m.Channel, m.TTR)
	}
	var missed []string
	for i := range agents {
		for j := i + 1; j < len(agents); j++ {
			if _, ok := res.Meeting(agents[i].Name, agents[j].Name); !ok {
				missed = append(missed, fmt.Sprintf("%s ↔ %s", agents[i].Name, agents[j].Name))
			}
		}
	}
	sort.Strings(missed)
	for _, m := range missed {
		fmt.Fprintf(out, "%-23s never met (disjoint sets or horizon too small)\n", m)
	}
	fmt.Fprintf(out, "\n%d of %d pairs met\n", len(meetings), len(meetings)+len(missed))
	return nil
}

// runScenario generates and runs a fleet scenario, printing its
// discovery summary. Everything is derived from seed, so the same
// command line reproduces the same report at any -parallel value.
func runScenario(out io.Writer, preset, alg string, n, agents, horizon, parallel int, seed uint64, churn float64, pu int) error {
	if _, ok := scenarioPresets[preset]; !ok {
		return fmt.Errorf("unknown scenario %q (want calm, churn, pu, churn-pu, jammer, sparse)", preset)
	}
	if agents < 2 {
		return fmt.Errorf("-agents %d: need at least 2", agents)
	}
	// -1 is the "no override" sentinel for both flags; anything else
	// must be a real value.
	if churn != -1 && (churn < 0 || churn > 1) {
		return fmt.Errorf("-churn %v: leave fraction must be in [0,1]", churn)
	}
	if pu != -1 && pu < 0 {
		return fmt.Errorf("-pu %d: primary-user count must be ≥ 0", pu)
	}
	sc := rendezvous.Scenario{
		Name:    preset,
		N:       n,
		Agents:  agents,
		K:       min(4, n),
		Seed:    seed,
		Horizon: horizon,
	}
	switch preset {
	case "churn", "churn-pu", "sparse":
		sc.Churn = rendezvous.Churn{WakeSpread: 2000, LeaveFrac: 0.25, MinLife: max(1, horizon/4), MaxLife: horizon}
	}
	switch preset {
	case "pu", "churn-pu", "sparse":
		sc.PU = rendezvous.PrimaryUsers{Count: 8, Window: 1024, OnFrac: 0.5}
	}
	if preset == "jammer" {
		sc.Jammer = rendezvous.Jammer{Dwell: 64}
	}
	if preset == "sparse" {
		// Constant density: ~1 agent per unit area, mean degree ≈ π·r².
		sc.Grid = rendezvous.Grid{Side: math.Sqrt(float64(agents)), Radius: 2.26}
	}
	if churn >= 0 {
		sc.Churn.LeaveFrac = churn
		if sc.Churn.MinLife == 0 {
			sc.Churn.MinLife, sc.Churn.MaxLife = max(1, horizon/4), horizon
		}
	}
	if pu >= 0 {
		sc.PU.Count = pu
		if sc.PU.Window == 0 {
			sc.PU.Window, sc.PU.OnFrac = 1024, 0.5
		}
	}
	build, err := rendezvous.ScenarioBuilder(alg, n, seed)
	if err != nil {
		return err
	}
	fl, err := sc.Open(build)
	if err != nil {
		return err
	}
	defer fl.Close()
	res := fl.Eng.RunParallelEnv(horizon, parallel, fl.Env)
	// Summarize folds the run's pair state, and Graph reuses the
	// positions Open derived.
	cov := fl.Summarize(res, horizon)
	fmt.Fprintf(out, "%s  algorithm=%s\n\n", sc, alg)
	if graph := fl.Graph(); graph != nil {
		pairs := agents * (agents - 1) / 2
		fmt.Fprintf(out, "contact edges     %d of %d pairs (%.0fx candidate reduction)\n",
			graph.Edges(), pairs, float64(pairs)/float64(max(1, graph.Edges())))
	}
	fmt.Fprintf(out, "eligible pairs    %d (channel sets overlap, lifetimes intersect)\n", cov.EligiblePairs)
	fmt.Fprintf(out, "pairs met         %d (%.1f%%)\n", cov.MetPairs, 100*cov.MetFrac())
	fmt.Fprintf(out, "mean TTR          %.0f slots\n", cov.MeanTTR)
	fmt.Fprintf(out, "last first-meet   slot %d\n", cov.LastSlot)
	return nil
}

func buildSchedule(alg string, n int, sp agentSpec, src rendezvous.BeaconSource, seed uint64) (rendezvous.Schedule, error) {
	switch alg {
	case "ours":
		return rendezvous.New(n, sp.channels)
	case "general":
		return rendezvous.NewGeneral(n, sp.channels)
	case "crseq":
		return rendezvous.NewCRSEQ(n, sp.channels)
	case "crseq-rand":
		return rendezvous.NewCRSEQRandomized(n, sp.channels, seed)
	case "jumpstay":
		return rendezvous.NewJumpStay(n, sp.channels)
	case "random":
		return rendezvous.NewRandom(n, sp.channels, seed, 1<<22)
	case "sweep":
		return rendezvous.NewSweep(n, sp.channels)
	case "beacon-fresh":
		s, err := rendezvous.NewBeaconFresh(n, sp.channels, src, rendezvous.BeaconConfig{})
		if err != nil {
			return nil, err
		}
		return rendezvous.AlignWake(s, sp.wake), nil
	case "beacon-walk":
		s, err := rendezvous.NewBeaconWalk(n, sp.channels, src, rendezvous.BeaconConfig{})
		if err != nil {
			return nil, err
		}
		return rendezvous.AlignWake(s, sp.wake), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", alg)
	}
}
