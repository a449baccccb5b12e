package simulator

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rendezvous/internal/schedule"
	"rendezvous/internal/tablecache"
)

// sessionFleet builds a fleet of small-period cyclic hoppers with
// overlapping channel sets — compilable schedules, so the first run
// pays table builds and every later run should ride the caches.
func sessionFleet(t *testing.T, agents int) []Agent {
	t.Helper()
	fleet := make([]Agent, agents)
	for i := range fleet {
		seq := []int{1 + i%7, 2 + (i*3)%11, 1 + (i*5)%13}
		fleet[i] = Agent{Name: fmt.Sprintf("s%02d", i), Sched: mustCyclic(t, seq)}
	}
	return fleet
}

// TestSessionSteadyStateAllocs pins the tentpole's amortization claim:
// once an engine and session are warm, a steady-state re-run allocates
// at most 1% of what a cold engine-per-run loop allocates — the result
// arrays, pair list, block rings and hop tables all survive. Run, at
// one worker, and RunParallelEnv at two, whose chunks run on two
// goroutines, are both held to it.
func TestSessionSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-runtime allocations; the plain build enforces this gate")
	}
	agents := sessionFleet(t, 32)
	const horizon = 4096
	defer simRestoreCache(t)()

	var sink int
	firstRun := testing.AllocsPerRun(5, func() {
		// A fresh private cache per iteration keeps this the honest
		// cold path: every engine rebuilds its tables from nothing.
		SetTableCache(tablecache.New(tablecache.DefaultBudget))
		eng, err := NewEngine(agents)
		if err != nil {
			t.Fatal(err)
		}
		sink += eng.RunEnv(horizon, nil).MetCount()
		eng.Close()
	})
	limit := firstRun / 100
	if limit < 1 {
		limit = 1
	}

	for name, run := range map[string]func(*Session) *Result{
		"Run":               func(s *Session) *Result { return s.Run(horizon) },
		"RunParallelEnv(2)": func(s *Session) *Result { return s.RunParallelEnv(horizon, 2, nil) },
	} {
		SetTableCache(tablecache.New(tablecache.DefaultBudget))
		eng, err := NewEngine(agents)
		if err != nil {
			t.Fatal(err)
		}
		sess := eng.Session()
		sink += run(sess).MetCount() // warm tables, pools, result
		steady := testing.AllocsPerRun(20, func() {
			sess.Reset()
			sink += run(sess).MetCount()
		})
		eng.Close()
		if steady > limit {
			t.Fatalf("%s: steady-state session run allocates %.0f objects/op, want <= %.0f (1%% of first-run %.0f)",
				name, steady, limit, firstRun)
		}
	}
	if sink == 0 {
		t.Fatal("fleet never met — the runs measured nothing")
	}
}

// TestSessionCacheBudgetIndependence is the budget-is-bookkeeping
// invariant: the same fleet run under a thrashing 1-byte cache, with
// caching disabled outright, and under a normal budget must produce
// identical meetings. The fleet's periods are far below half the
// horizon, so every run compiles its schedules through the cache.
// Cached tables are immutable, so eviction pressure may only cost time,
// never change a result.
func TestSessionCacheBudgetIndependence(t *testing.T) {
	agents := sessionFleet(t, 24)
	const horizon = 4096
	defer simRestoreCache(t)()

	run := func(c *tablecache.Cache) []Meeting {
		SetTableCache(c)
		eng, err := NewEngine(agents)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		sess := eng.Session()
		defer sess.Close()
		return sess.RunParallelEnv(horizon, 1, nil).Meetings()
	}

	normal := tablecache.New(tablecache.DefaultBudget)
	want := run(normal)
	if len(want) == 0 {
		t.Fatal("fleet never met — budgets compared nothing")
	}
	if st := normal.Stats(); st.Misses == 0 {
		t.Fatalf("the run compiled nothing through the cache: %+v", st)
	}
	for _, tc := range []struct {
		name  string
		cache *tablecache.Cache
	}{
		{"budget-1", tablecache.New(1)},
		{"disabled", nil},
	} {
		if got := run(tc.cache); !reflect.DeepEqual(want, got) {
			t.Errorf("%s: meetings diverge from normal-budget run (%d vs %d)", tc.name, len(got), len(want))
		}
	}
}

// prefixFleet builds agents whose cyclic period is the given length,
// so no schedule compiles at horizons below twice that.
func prefixFleet(t *testing.T, agents, period int) []Agent {
	t.Helper()
	fleet := make([]Agent, agents)
	for i := range fleet {
		seq := make([]int, period)
		for s := range seq {
			seq[s] = 1 + (s*(i+2)+i)%17
		}
		fleet[i] = Agent{Name: fmt.Sprintf("p%02d", i), Sched: mustCyclic(t, seq)}
	}
	return fleet
}

// TestSessionShrinkThenGrowHorizon pins the Result.reset contract:
// reset returns every pair word to unmet and empties the tally, so
// nothing a previous (possibly much longer) run recorded survives. A
// session run at a large horizon, then re-run at a small one, then
// grown again must agree exactly — meetings, met counts, and per-pair
// misses — with fresh single-use engines run through the per-slot
// oracle at each horizon. A stale pair word or tally (recorded beyond
// the shrunken horizon) would diverge here.
func TestSessionShrinkThenGrowHorizon(t *testing.T) {
	defer simRestoreCache(t)()
	agents := sessionFleet(t, 24)
	// Churn makes pair eligibility horizon-dependent, so the meetable
	// set itself changes as the horizon moves.
	for i := range agents {
		agents[i].Wake = (i * 37) % 600
		if i%3 == 0 {
			agents[i].Leave = agents[i].Wake + 900
		}
	}

	eng, err := NewEngine(agents)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sess := eng.Session()
	defer sess.Close()

	check := func(horizon int) {
		t.Helper()
		got := sess.Run(horizon)
		fresh, err := NewEngine(agents)
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		want := slotRun(fresh, horizon, nil)
		if got.MetCount() != want.MetCount() {
			t.Fatalf("horizon %d: session met %d pairs, fresh engine %d", horizon, got.MetCount(), want.MetCount())
		}
		if !reflect.DeepEqual(got.Meetings(), want.Meetings()) {
			t.Fatalf("horizon %d: session meetings diverge from fresh engine", horizon)
		}
		// Per-pair misses: a stale met-adjacent entry would surface as a
		// phantom meeting for a pair the fresh run reports unmet.
		for i := range agents {
			for j := i + 1; j < len(agents); j++ {
				gm, gok := got.Meeting(agents[i].Name, agents[j].Name)
				wm, wok := want.Meeting(agents[i].Name, agents[j].Name)
				if gok != wok || gm != wm {
					t.Fatalf("horizon %d: pair %s-%s: session (%v,%v) vs fresh (%v,%v)",
						horizon, agents[i].Name, agents[j].Name, gm, gok, wm, wok)
				}
			}
		}
	}

	// Large first run records late meetings in the pair words;
	// the shrink must not resurrect any of them, and the grow must
	// rediscover them from scratch.
	for _, horizon := range []int{16384, 1024, 256, 4096, 16384} {
		check(horizon)
	}
}

// TestEligibilityReusedPastLastWake pins the effective-horizon key of
// the meetable-pair cache: on a fleet whose last wake is below 4,096,
// horizons 4,096 and 8,192 share one cached count, while a horizon at
// or below the last wake counts again. Every count must match a
// quadratic recount over the input fleet, and each run's pair list,
// sized from it, must give the oracle's meetings.
func TestEligibilityReusedPastLastWake(t *testing.T) {
	fleet := jointTestFleet(t, rand.New(rand.NewSource(131)), 40)
	eng, err := NewEngine(fleet)
	if err != nil {
		t.Fatal(err)
	}
	lastWake := 0
	for _, a := range fleet {
		lastWake = max(lastWake, a.Wake)
	}
	if lastWake >= 4096 {
		t.Fatalf("fixture: last wake %d, want one below 4,096", lastWake)
	}
	recount := func(horizon int) int {
		n := 0
		for i := range fleet {
			for j := i + 1; j < len(fleet); j++ {
				if Coexist(fleet[i], fleet[j], horizon) &&
					SetsIntersect(schedule.AllChannels(fleet[i].Sched), schedule.AllChannels(fleet[j].Sched)) {
					n++
				}
			}
		}
		return n
	}
	// check counts at horizon, asserting the count and the key it is
	// cached under, and runs the fleet there against the oracle.
	check := func(horizon, key int) {
		t.Helper()
		if got, want := eng.meetablePairs(horizon), recount(horizon); got != want {
			t.Fatalf("horizon %d: %d meetable pairs, quadratic recount %d", horizon, got, want)
		}
		if eng.meetableHorizon != key {
			t.Fatalf("horizon %d: meetable count cached at horizon %d, want %d", horizon, eng.meetableHorizon, key)
		}
		if got, want := renderMeetings(eng.RunParallel(horizon, 2)), renderMeetings(slotRun(eng, horizon, nil)); got != want {
			t.Fatalf("horizon %d: run diverged from the oracle", horizon)
		}
	}
	check(4096, lastWake+1)
	check(8192, lastWake+1)
	if recount(lastWake) >= recount(lastWake+1) {
		t.Fatal("fixture: the last waker adds no meetable pair, so no horizon at the last wake differs")
	}
	check(lastWake, lastWake)
	check(8192, lastWake+1)
}

// TestEligibleHorizonAtHugeWake pins the effective horizon's overflow
// guard: an agent waking at math.MaxInt never coexists with anyone, and
// must not wrap the cache key into a horizon at which no pair is
// meetable.
func TestEligibleHorizonAtHugeWake(t *testing.T) {
	s := mustCyclic(t, []int{1, 2})
	eng, err := NewEngine([]Agent{
		{Name: "a", Sched: s}, {Name: "b", Sched: s, Wake: 3}, {Name: "late", Sched: s, Wake: math.MaxInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{4, 100, math.MaxInt} {
		if got := eng.meetablePairs(h); got != 1 {
			t.Fatalf("horizon %d: %d meetable pairs, want 1", h, got)
		}
	}
}

// TestEngineCloseThenRunRepins pins Close's reuse contract: a run
// issued after Close may borrow fresh tables from the cache (here,
// compiled tables for the first horizon that spans two periods); those
// pins are re-tracked on the engine and the next Close releases them —
// no pin survives the last Close, at any call order.
func TestEngineCloseThenRunRepins(t *testing.T) {
	cache := tablecache.New(tablecache.DefaultBudget)
	prev := SetTableCache(cache)
	defer SetTableCache(prev)

	const period = 300
	eng, err := NewEngine(prefixFleet(t, 6, period))
	if err != nil {
		t.Fatal(err)
	}
	// Below two periods no schedule compiles, so the run pins nothing.
	if eng.Run(2*period-1).MetCount() == 0 {
		t.Fatal("fleet never met — nothing exercised")
	}
	if s := cache.Stats(); s.Pinned != 0 || s.Misses != 0 {
		t.Fatalf("a run below two periods touched the cache: %+v", s)
	}
	eng.Close()

	// Run after Close at two periods: compiles, borrows and pins anew.
	eng.Run(2 * period)
	if s := cache.Stats(); s.Pinned == 0 {
		t.Fatalf("run after Close did not re-track its pins: %+v", s)
	}
	eng.Close()
	if s := cache.Stats(); s.Pinned != 0 || s.Refs != 0 {
		t.Fatalf("re-tracked pins survive the second Close: %+v", s)
	}
	// The engine keeps its compiled tables: a later run reads them
	// without pinning again.
	eng.Run(4 * period)
	if s := cache.Stats(); s.Pinned != 0 {
		t.Fatalf("a run on compiled tables the engine holds pinned again: %+v", s)
	}
}

// simRestoreCache swaps the process cache out and returns a func
// restoring it, so cache-injecting tests cannot leak state.
func simRestoreCache(t *testing.T) func() {
	t.Helper()
	prev := SetTableCache(tablecache.New(tablecache.DefaultBudget))
	return func() { SetTableCache(prev) }
}

// TestPairwiseRunBuildsNoTables pins the scan's table footprint: it
// reads schedules only, so a run over schedules too long to compile
// leaves nothing in the table cache.
func TestPairwiseRunBuildsNoTables(t *testing.T) {
	cache := tablecache.New(tablecache.DefaultBudget)
	prev := SetTableCache(cache)
	defer SetTableCache(prev)
	eng, err := NewEngine(prefixFleet(t, 8, 3000))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const horizon = 1024
	sess := eng.Session()
	if n := sess.RunParallelEnv(horizon, 1, nil).MetCount(); n == 0 {
		t.Fatal("fleet never met — the run measured nothing")
	}
	if r := eng.LastRoute(); r != RoutePairwise {
		t.Fatalf("8-agent fleet routed %v, want pairwise", r)
	}
	if st := cache.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Fatalf("pairwise run touched the table cache: %+v", st)
	}
}
