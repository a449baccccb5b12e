package simulator_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rendezvous/internal/proptest"
	"rendezvous/internal/simulator"
)

// TestEngineBlockEquivalence requires Run and RunParallel (at several
// worker counts) to reproduce the brute-force per-slot oracle,
// proptest.ReferenceRun, meeting for meeting over randomized
// multi-agent fleets drawn from every schedule family.
func TestEngineBlockEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n = 32
	for trial := 0; trial < 10; trial++ {
		agents := make([]simulator.Agent, 2+rng.Intn(5))
		for i := range agents {
			w := simulator.RandomOverlappingPair(rng, n, 1+rng.Intn(4), 1+rng.Intn(4))
			alg := proptest.MetaAlgs[rng.Intn(len(proptest.MetaAlgs))]
			s, err := proptest.BuildSchedule(alg, n, w.A, rng.Int63())
			if err != nil {
				t.Fatal(err)
			}
			agents[i] = simulator.Agent{Name: fmt.Sprintf("a%d", i), Sched: s, Wake: rng.Intn(500)}
		}
		horizon := 1 + rng.Intn(60_000)
		eng, err := simulator.NewEngine(agents)
		if err != nil {
			t.Fatal(err)
		}
		want := proptest.ReferenceRun(agents, horizon, nil)
		for name, res := range map[string]*simulator.Result{
			"Run":                  eng.Run(horizon),
			"RunParallel(1)":       eng.RunParallel(horizon, 1),
			"RunParallel(4)":       eng.RunParallel(horizon, 4),
			"RunParallel(default)": eng.RunParallel(horizon, 0),
		} {
			if got := proptest.ResultMeetings(res); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %s diverged from the reference run:\n got %v\nwant %v",
					trial, name, got, want)
			}
		}
	}
}
