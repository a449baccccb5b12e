package simulator_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rendezvous/internal/proptest"
	"rendezvous/internal/schedule"
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

// benchFleet derives a deterministic fleet of the given size over the
// MULTI population model (n=128, k=4, hub channel).
func benchFleet(tb testing.TB, size int) []simulator.Agent {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	const n = 128
	agents := make([]simulator.Agent, size)
	for i := range agents {
		w := simulator.RandomOverlappingPair(rng, n, 4, 4)
		s, err := schedule.NewAsync(n, w.A)
		if err != nil {
			tb.Fatal(err)
		}
		agents[i] = simulator.Agent{Name: fmt.Sprintf("a%d", i), Sched: s, Wake: rng.Intn(2000)}
	}
	return agents
}

// TestIndexedEngineMatchesReference checks a 24-agent MULTI fleet over
// a 30,000-slot horizon — long enough for the compiled hop tables and
// several block windows — against proptest.ReferenceRun, through Run
// and RunParallel at two and at three workers.
func TestIndexedEngineMatchesReference(t *testing.T) {
	agents := benchFleet(t, 24)
	const horizon = 30_000
	want := proptest.ReferenceRun(agents, horizon, nil)
	eng, err := simulator.NewEngine(agents)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*simulator.Result{
		"Run":            eng.Run(horizon),
		"RunParallel(2)": eng.RunParallel(horizon, 2),
		"RunParallel(3)": eng.RunParallel(horizon, 3),
	} {
		if got := proptest.ResultMeetings(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s diverged from the reference run: %d meetings, reference %d", name, len(got), len(want))
		}
	}
}

// BenchmarkEngineCore measures Run (the scan at one worker) on growing
// MULTI fleets, the fleet-core refactor's benchmark.
func BenchmarkEngineCore(b *testing.B) {
	for _, size := range []int{16, 64, 128} {
		agents := benchFleet(b, size)
		horizon := 20_000
		b.Run(fmt.Sprintf("fleet=%d/indexed", size), func(b *testing.B) {
			eng, err := simulator.NewEngine(agents)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := eng.Run(horizon)
				if res.MetCount() == 0 {
					b.Fatal("no meetings")
				}
			}
		})
	}
}
