package scenario

import (
	"reflect"
	"testing"

	"rendezvous/internal/simulator"
)

// testScenario is a small fleet with every dynamic enabled: staggered
// wakes, mid-run leaves, primary users, and a sweeping jammer.
func testScenario() Scenario {
	return Scenario{
		Name:    "test",
		N:       64,
		Agents:  12,
		K:       4,
		Seed:    42,
		Horizon: 1 << 13,
		Churn:   Churn{WakeSpread: 500, LeaveFrac: 0.3, MinLife: 1000, MaxLife: 4000},
		PU:      PrimaryUsers{Count: 6, Window: 256, OnFrac: 0.5},
		Jammer:  Jammer{Dwell: 64},
	}
}

func TestValidate(t *testing.T) {
	if err := testScenario().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	mut := func(f func(*Scenario)) Scenario {
		sc := testScenario()
		f(&sc)
		return sc
	}
	bad := map[string]Scenario{
		"n":            mut(func(s *Scenario) { s.N = 0 }),
		"agents":       mut(func(s *Scenario) { s.Agents = 1 }),
		"horizon":      mut(func(s *Scenario) { s.Horizon = 0 }),
		"k-zero":       mut(func(s *Scenario) { s.K = 0 }),
		"k-over":       mut(func(s *Scenario) { s.K = 65 }),
		"block":        mut(func(s *Scenario) { s.Block = []int{0} }),
		"wake-spread":  mut(func(s *Scenario) { s.Churn.WakeSpread = -1 }),
		"leave-frac":   mut(func(s *Scenario) { s.Churn.LeaveFrac = 1.5 }),
		"lifetimes":    mut(func(s *Scenario) { s.Churn.MinLife = 0 }),
		"pu-window":    mut(func(s *Scenario) { s.PU.Window = 1 }),
		"pu-frac":      mut(func(s *Scenario) { s.PU.OnFrac = -0.1 }),
		"jam-dwell":    mut(func(s *Scenario) { s.Jammer.Dwell = -5 }),
		"jam-channels": mut(func(s *Scenario) { s.Jammer.Channels = []int{99} }),
	}
	for name, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestBuilderForUnknown(t *testing.T) {
	if _, err := BuilderFor("nope", 16, 1); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestBuildDeterministic: the same Scenario value must derive the same
// fleet — names, channel sets, wakes, leaves — every time.
func TestBuildDeterministic(t *testing.T) {
	sc := testScenario()
	build, err := BuilderFor("ours", sc.N, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	a1, _, err := sc.Build(build)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := sc.Build(build)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != sc.Agents {
		t.Fatalf("built %d agents, want %d", len(a1), sc.Agents)
	}
	for i := range a1 {
		if a1[i].Name != a2[i].Name || a1[i].Wake != a2[i].Wake || a1[i].Leave != a2[i].Leave {
			t.Fatalf("agent %d differs across builds: %+v vs %+v", i, a1[i], a2[i])
		}
		if !reflect.DeepEqual(a1[i].Sched.Channels(), a2[i].Sched.Channels()) {
			t.Fatalf("agent %d channel sets differ: %v vs %v",
				i, a1[i].Sched.Channels(), a2[i].Sched.Channels())
		}
	}
}

// TestEnvironmentPure: Available must be a pure random-access function
// of (ch, t) — repeated and out-of-order queries agree.
func TestEnvironmentPure(t *testing.T) {
	sc := testScenario()
	env := sc.environment()
	if env == nil {
		t.Fatal("scenario with PU and jammer produced nil environment")
	}
	type q struct{ ch, t int }
	first := map[q]bool{}
	for ch := 1; ch <= sc.N; ch += 7 {
		for tt := 0; tt < 2048; tt += 137 {
			first[q{ch, tt}] = env.Available(ch, tt)
		}
	}
	// Replay in a different order, twice.
	for round := 0; round < 2; round++ {
		for k, want := range first {
			if got := env.Available(k.ch, k.t); got != want {
				t.Fatalf("Available(%d,%d) flipped: %v then %v", k.ch, k.t, want, got)
			}
		}
	}
}

// TestRunMatchesJointUnderDynamics is the scenario-level equivalence
// regression: under churn + primary users + jammer, the joint
// simulation — every agent stepped slot by slot together, the model
// transcribed (jointRun) — and the engine's runs (RunEnv and
// RunParallelEnv) must agree meeting-for-meeting at every worker count.
// At 64 channels the environment blocks none of the fleet's first
// meetings; at 12 it moves some, so the scan's channel masking is
// checked too.
func TestRunMatchesJointUnderDynamics(t *testing.T) {
	for _, n := range []int{64, 12} {
		sc := testScenario()
		sc.N = n
		build, err := BuilderFor("ours", sc.N, sc.Seed)
		if err != nil {
			t.Fatal(err)
		}
		agents, env, err := sc.Build(build)
		if err != nil {
			t.Fatal(err)
		}
		if env == nil {
			t.Fatal("expected a live environment")
		}
		eng, err := simulator.NewEngine(agents)
		if err != nil {
			t.Fatal(err)
		}
		want := jointRun(agents, sc.Horizon, env)
		if n == 12 && reflect.DeepEqual(jointRun(agents, sc.Horizon, nil), want) {
			t.Fatalf("n=%d: the environment moved no meeting", n)
		}
		runs := []struct {
			name string
			run  func() *simulator.Result
		}{
			{"RunEnv", func() *simulator.Result { return eng.RunEnv(sc.Horizon, env) }},
			{"workers=1", func() *simulator.Result { return eng.RunParallelEnv(sc.Horizon, 1, env) }},
			{"workers=4", func() *simulator.Result { return eng.RunParallelEnv(sc.Horizon, 4, env) }},
		}
		for _, tc := range runs {
			got := map[[2]string]simulator.Meeting{}
			for _, m := range tc.run().Meetings() {
				got[[2]string{m.A, m.B}] = m
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d %s: %d meetings, the joint simulation %d, or they differ", n, tc.name, len(got), len(want))
			}
		}
	}
}

// jointRun steps every agent together slot by slot and records each
// pair's first co-hop on an available channel, keyed by name pair in
// name order.
func jointRun(agents []simulator.Agent, horizon int, env simulator.Environment) map[[2]string]simulator.Meeting {
	met := map[[2]string]simulator.Meeting{}
	active := func(a simulator.Agent, t int) bool { return t >= a.Wake && (a.Leave == 0 || t < a.Leave) }
	for t := 0; t < horizon; t++ {
		for i, a := range agents {
			for _, b := range agents[i+1:] {
				if !active(a, t) || !active(b, t) {
					continue
				}
				ch := a.Sched.Channel(t - a.Wake)
				if ch != b.Sched.Channel(t-b.Wake) || (env != nil && !env.Available(ch, t)) {
					continue
				}
				key := [2]string{min(a.Name, b.Name), max(a.Name, b.Name)}
				if _, done := met[key]; !done {
					met[key] = simulator.Meeting{A: key[0], B: key[1], Slot: t, Channel: ch, TTR: t - max(a.Wake, b.Wake)}
				}
			}
		}
	}
	return met
}

// TestEnvironmentBlocksMeetings: a jammer camped on the only common
// channel must suppress rendezvous entirely; removing it restores the
// meetings.
func TestEnvironmentBlocksMeetings(t *testing.T) {
	base := Scenario{
		N: 16, Agents: 4, Block: []int{5}, Seed: 9, Horizon: 4096,
	}
	build, err := BuilderFor("ours", base.N, base.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, agents, err := base.Run(build, 1)
	if err != nil {
		t.Fatal(err)
	}
	cov := Summarize(res, agents, base.Horizon)
	if cov.MetPairs != cov.EligiblePairs || cov.MetPairs == 0 {
		t.Fatalf("calm single-channel coalition should fully meet: %+v", cov)
	}

	jammed := base
	jammed.Jammer = Jammer{Dwell: 8, Channels: []int{5}}
	res, agents, err = jammed.Run(build, 1)
	if err != nil {
		t.Fatal(err)
	}
	cov = Summarize(res, agents, jammed.Horizon)
	if cov.MetPairs != 0 {
		t.Fatalf("jammer on the only channel should block all meetings: %+v", cov)
	}
	if cov.MetFrac() != 0 {
		t.Fatalf("MetFrac = %v with 0/%d met", cov.MetFrac(), cov.EligiblePairs)
	}
}

// TestSummarizeEligibility: pairs whose lifetimes never overlap are not
// eligible, so full coverage is still reportable under churn.
func TestSummarizeEligibility(t *testing.T) {
	sc := testScenario()
	build, err := BuilderFor("ours", sc.N, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, agents, err := sc.Run(build, 0)
	if err != nil {
		t.Fatal(err)
	}
	cov := Summarize(res, agents, sc.Horizon)
	if cov.Agents != sc.Agents {
		t.Fatalf("coverage agents %d, want %d", cov.Agents, sc.Agents)
	}
	if cov.MetPairs > cov.EligiblePairs {
		t.Fatalf("met %d > eligible %d", cov.MetPairs, cov.EligiblePairs)
	}
	if cov.LastSlot >= sc.Horizon {
		t.Fatalf("LastSlot %d outside horizon %d", cov.LastSlot, sc.Horizon)
	}
	if f := cov.MetFrac(); f < 0 || f > 1 {
		t.Fatalf("MetFrac %v outside [0,1]", f)
	}
}
