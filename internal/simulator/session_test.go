package simulator

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

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
// arrays, pair state, scratch pools and hop tables all survive. Both
// one-worker decompositions are held to it: Run, which takes the
// pairwise scan on this fleet, and the joint engine's solo path.
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
		"Run":   func(s *Session) *Result { return s.Run(horizon) },
		"joint": func(s *Session) *Result { return s.RunJointParallelEnv(horizon, 1, nil) },
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
// identical meetings. Cached tables are immutable, so eviction pressure
// may only cost time, never change a result.
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
		// The joint engine borrows every table layer: compiled, dense
		// and horizon-prefix tables.
		return sess.RunJointParallelEnv(horizon, 1, nil).Meetings()
	}

	want := run(tablecache.New(tablecache.DefaultBudget))
	if len(want) == 0 {
		t.Fatal("fleet never met — budgets compared nothing")
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

// prefixFleet builds agents whose cyclic periods exceed twice every
// horizon the test runs, so no schedule compiles and every run goes
// through the horizon-prefix table path — the one whose tables a
// longer horizon replaces.
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
// reset clears only the met bitset and count, leaving slot/channel/ttr
// populated from the previous (possibly much longer) run, so every
// reader must guard on the met bit. A session run at a large horizon,
// then re-run at a small one, then grown again must agree exactly —
// meetings, met counts, and per-pair misses — with fresh single-use
// engines running the other decomposition at each horizon. A reader
// that ever consulted a stale slot/channel/ttr entry (recorded beyond
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
		want := fresh.RunJointParallel(horizon, 1)
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

	// Large first run populates slot/channel/ttr with late meetings;
	// the shrink must not resurrect any of them, and the grow must
	// rediscover them from scratch.
	for _, horizon := range []int{16384, 1024, 256, 4096, 16384} {
		check(horizon)
	}
}

// TestEligibilityReusedPastLastWake pins the effective-horizon key of
// the eligibility caches: on a fleet whose last wake is below 4,096,
// horizons 4,096 and 8,192 share one meetable count and one met
// template (the same backing arrays), while a horizon at or below the
// last wake rebuilds both. Every count must match a quadratic recount
// over the input fleet.
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
					SetsIntersect(allChannels(fleet[i].Sched), allChannels(fleet[j].Sched)) {
					n++
				}
			}
		}
		return n
	}
	// check runs both caches at horizon and reports the template and
	// full-mask arrays, after asserting the count and the key it is
	// cached under.
	check := func(horizon, key int) (tmpl, full []uint64) {
		t.Helper()
		if got, want := eng.meetablePairs(horizon), recount(horizon); got != want {
			t.Fatalf("horizon %d: %d meetable pairs, quadratic recount %d", horizon, got, want)
		}
		if eng.meetableHorizon != key {
			t.Fatalf("horizon %d: meetable count cached at horizon %d, want %d", horizon, eng.meetableHorizon, key)
		}
		tmpl, full = eng.metSeed(horizon)
		if eng.metSeedHorizon != key {
			t.Fatalf("horizon %d: met template cached at horizon %d, want %d", horizon, eng.metSeedHorizon, key)
		}
		return tmpl, full
	}
	t4, f4 := check(4096, lastWake+1)
	t8, f8 := check(8192, lastWake+1)
	if &t4[0] != &t8[0] || &f4[0] != &f8[0] {
		t.Fatal("horizons 4,096 and 8,192 lie past the last wake, but the met template was rebuilt")
	}
	if recount(lastWake) >= recount(lastWake+1) {
		t.Fatal("fixture: the last waker adds no meetable pair, so no horizon at the last wake differs")
	}
	tl, fl := check(lastWake, lastWake)
	if &tl[0] == &t8[0] || &fl[0] == &f8[0] {
		t.Fatal("the horizon at the last wake reused the template of the horizons past it")
	}
	if again, _ := check(8192, lastWake+1); &again[0] == &tl[0] {
		t.Fatal("horizon 8,192 reused the template of the horizon at the last wake")
	}
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
// longer prefix tables for a horizon past the ones the engine holds);
// those pins are re-tracked on the engine and the next Close releases
// them — no pin survives the last Close, at any call order.
func TestEngineCloseThenRunRepins(t *testing.T) {
	cache := tablecache.New(tablecache.DefaultBudget)
	prev := SetTableCache(cache)
	defer SetTableCache(prev)

	eng, err := NewEngine(prefixFleet(t, 6, 3000))
	if err != nil {
		t.Fatal(err)
	}
	// Pairwise runs build no tables, so the test forces the joint engine.
	if eng.RunJointParallel(512, 1).MetCount() == 0 {
		t.Fatal("fleet never met — nothing exercised")
	}
	if s := cache.Stats(); s.Pinned == 0 {
		t.Fatalf("first run pinned nothing (stats %+v) — fleet does not exercise the cache", s)
	}
	eng.Close()
	if s := cache.Stats(); s.Pinned != 0 || s.Refs != 0 {
		t.Fatalf("pins survive Close: %+v", s)
	}

	// Run after Close at a new horizon: borrows and pins anew.
	eng.RunJointParallel(768, 1)
	if s := cache.Stats(); s.Pinned == 0 {
		t.Fatalf("run after Close did not re-track its pins: %+v", s)
	}
	eng.Close()
	if s := cache.Stats(); s.Pinned != 0 || s.Refs != 0 {
		t.Fatalf("re-tracked pins survive the second Close: %+v", s)
	}
}

// TestPrefixPinsReleasedOnHorizonChange pins the long-running-caller
// contract: an engine whose horizons keep growing replaces each agent's
// prefix table with a longer one, and must swap the agent's pin as it
// goes. Were the replaced tables' pins kept until Close, every horizon
// would leak a table set the cache could never evict.
func TestPrefixPinsReleasedOnHorizonChange(t *testing.T) {
	cache := tablecache.New(tablecache.DefaultBudget)
	prev := SetTableCache(cache)
	defer SetTableCache(prev)

	const agents = 6
	eng, err := NewEngine(prefixFleet(t, agents, 5000))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sess := eng.Session()

	var after []int64
	for _, horizon := range []int{256, 512, 768, 1024, 1280, 1536} {
		sess.RunJointParallelEnv(horizon, 1, nil) // pairwise runs build no tables
		after = append(after, cache.Stats().Refs)
	}
	// Every horizon pins exactly one prefix table per agent; replacing
	// an agent's table must drop its pin, so the outstanding count stays
	// flat instead of climbing by `agents` per horizon.
	for i, refs := range after {
		if refs != after[0] {
			t.Fatalf("outstanding pins climbed across horizons: %v (leaked prefix pins)", after)
		}
		if i == 0 && refs != agents {
			t.Fatalf("first horizon pinned %d tables, want %d (one prefix table per agent)", refs, agents)
		}
	}
}

// TestPrefixTablesServeShorterHorizons pins the one-table-per-agent
// rule: an agent's prefix table serves every horizon it covers, so a
// session moving between horizons builds tables only when a horizon
// past every earlier one arrives, and reads the longest table's prefix
// otherwise without touching the cache. The cache holds one entry per
// agent, the session one pin per agent, and each run's meetings match
// a fresh engine's, whose private tables end at exactly that horizon.
// A second engine on the same cache then borrows the longest tables for
// a shorter horizon without adding an entry.
func TestPrefixTablesServeShorterHorizons(t *testing.T) {
	const agents = 6
	fleet := prefixFleet(t, agents, 5000)
	fresh := func(horizon int) []Meeting {
		t.Helper()
		prev := SetTableCache(nil)
		eng, err := NewEngine(fleet)
		SetTableCache(prev)
		if err != nil {
			t.Fatal(err)
		}
		return eng.RunJointParallelEnv(horizon, 1, nil).Meetings()
	}
	cache := tablecache.New(tablecache.DefaultBudget)
	prev := SetTableCache(cache)
	defer SetTableCache(prev)

	eng, err := NewEngine(fleet)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sess := eng.Session()
	defer sess.Close()
	longest := 0
	for _, horizon := range []int{1024, 512, 768, 1024, 1536, 256, 1536} {
		before := cache.Stats()
		got := sess.RunJointParallelEnv(horizon, 1, nil).Meetings()
		after := cache.Stats()
		if want := fresh(horizon); len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("horizon %d: session met %d pairs, a fresh engine %d, or the meetings differ", horizon, len(got), len(want))
		}
		builds, lookups := after.Misses-before.Misses, after.Hits+after.Misses-before.Hits-before.Misses
		if horizon > longest {
			longest = horizon
			if builds != agents || lookups != agents {
				t.Fatalf("horizon %d: %d builds in %d lookups, want %d of each (one longer table per agent)", horizon, builds, lookups, agents)
			}
		} else if lookups != 0 {
			t.Fatalf("horizon %d lies within the %d-slot tables, yet the run made %d cache lookups", horizon, longest, lookups)
		}
		if after.Entries != agents || after.Refs != agents || after.Bytes != int64(agents*4*longest) {
			t.Fatalf("horizon %d: cache %+v; want %d entries of %d slots, one pin each", horizon, after, agents, longest)
		}
	}

	other, err := NewEngine(fleet)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	before := cache.Stats()
	if got, want := other.RunJointParallelEnv(300, 1, nil).Meetings(), fresh(300); !reflect.DeepEqual(got, want) {
		t.Fatalf("horizon 300 on a second engine: %d meetings, a fresh private engine %d", len(got), len(want))
	}
	after := cache.Stats()
	if after.Hits-before.Hits != agents || after.Misses != before.Misses || after.Entries != agents {
		t.Fatalf("second engine at horizon 300: cache %+v after %+v; want %d hits on the existing entries and nothing built", after, before, agents)
	}
	for i, d := range other.dense {
		if d.Len() != longest {
			t.Fatalf("second engine: agent %d reads a %d-slot table, want the %d-slot one", i, d.Len(), longest)
		}
	}
}

// simRestoreCache swaps the process cache out and returns a func
// restoring it, so cache-injecting tests cannot leak state.
func simRestoreCache(t *testing.T) func() {
	t.Helper()
	prev := SetTableCache(tablecache.New(tablecache.DefaultBudget))
	return func() { SetTableCache(prev) }
}

// TestPairwiseRunBuildsNoTables pins the pairwise path's table
// footprint: its scans read schedules only, so a pairwise run over
// schedules too long to compile leaves nothing in the table cache —
// no dense or horizon-prefix tables it would never read.
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
