package simulator

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rendezvous/internal/baselines"
	"rendezvous/internal/schedule"
)

func mustCyclic(t *testing.T, seq []int) schedule.Schedule {
	t.Helper()
	c, err := schedule.NewCyclic(seq)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPairTTRBasic(t *testing.T) {
	a := mustCyclic(t, []int{1, 2, 3})
	b := mustCyclic(t, []int{3, 3, 3})
	// a wakes at 0, b at 0: a hops 3 at slot 2.
	got, ok := PairTTR(a, b, 0, 0, 10)
	if !ok || got != 2 {
		t.Fatalf("PairTTR = %d,%v want 2,true", got, ok)
	}
	// b wakes at 1: global slot t, a plays t%3+..., b always 3.
	// t=1: a plays 2, t=2: a plays 3 -> TTR measured from slot 1 is 1.
	got, ok = PairTTR(a, b, 0, 1, 10)
	if !ok || got != 1 {
		t.Fatalf("PairTTR with offset = %d,%v want 1,true", got, ok)
	}
	// Disjoint channels never meet.
	c := mustCyclic(t, []int{9})
	if _, ok := PairTTR(a, c, 0, 0, 100); ok {
		t.Fatal("disjoint schedules met")
	}
}

func TestPairTTRSymmetricInWakeOrder(t *testing.T) {
	a := mustCyclic(t, []int{1, 2, 1, 4})
	b := mustCyclic(t, []int{4, 2})
	t1, ok1 := PairTTR(a, b, 0, 3, 50)
	t2, ok2 := PairTTR(b, a, 3, 0, 50)
	if ok1 != ok2 || t1 != t2 {
		t.Fatalf("PairTTR not symmetric: (%d,%v) vs (%d,%v)", t1, ok1, t2, ok2)
	}
}

func TestEngineMatchesPairTTR(t *testing.T) {
	// The multi-agent engine must agree with the direct pair scan.
	rng := rand.New(rand.NewSource(5))
	const n = 16
	for trial := 0; trial < 50; trial++ {
		w := RandomOverlappingPair(rng, n, 1+rng.Intn(4), 1+rng.Intn(4))
		sa, err := schedule.NewGeneral(n, w.A)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := schedule.NewGeneral(n, w.B)
		if err != nil {
			t.Fatal(err)
		}
		wakeA, wakeB := rng.Intn(50), rng.Intn(50)
		eng, err := NewEngine([]Agent{
			{Name: "a", Sched: sa, Wake: wakeA},
			{Name: "b", Sched: sb, Wake: wakeB},
		})
		if err != nil {
			t.Fatal(err)
		}
		horizon := 50 + sa.RendezvousBound(len(w.B))
		res := eng.Run(horizon)
		m, ok := res.Meeting("a", "b")
		want, wantOK := PairTTR(sa, sb, wakeA, wakeB, horizon)
		if ok != wantOK {
			t.Fatalf("engine ok=%v pair ok=%v for %+v", ok, wantOK, w)
		}
		if ok && m.TTR != want {
			t.Fatalf("engine TTR %d != pair TTR %d for %+v", m.TTR, want, w)
		}
	}
}

func TestEngineMultiAgent(t *testing.T) {
	// Three agents with a common channel: all pairs must meet, and the
	// meeting metadata must be consistent.
	const n = 8
	mk := func(set []int) schedule.Schedule {
		s, err := schedule.NewGeneral(n, set)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	agents := []Agent{
		{Name: "alice", Sched: mk([]int{1, 3, 5}), Wake: 0},
		{Name: "bob", Sched: mk([]int{3, 4}), Wake: 7},
		{Name: "carol", Sched: mk([]int{3, 8}), Wake: 13},
	}
	eng, err := NewEngine(agents)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run(20000)
	if !res.AllMet(agents) {
		t.Fatal("not all overlapping pairs met")
	}
	for _, m := range res.Meetings() {
		if m.TTR < 0 || m.Slot < 0 {
			t.Fatalf("negative meeting data: %+v", m)
		}
		if m.A >= m.B {
			t.Fatalf("meeting keys unordered: %+v", m)
		}
	}
	if len(res.Meetings()) != 3 {
		t.Fatalf("expected 3 meetings, got %d", len(res.Meetings()))
	}
}

func TestEngineSleepersNeverMeet(t *testing.T) {
	a := mustCyclic(t, []int{1})
	b := mustCyclic(t, []int{1})
	eng, err := NewEngine([]Agent{
		{Name: "a", Sched: a, Wake: 0},
		{Name: "b", Sched: b, Wake: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run(1000) // b never wakes inside the horizon
	if _, ok := res.Meeting("a", "b"); ok {
		t.Fatal("sleeping agent met someone")
	}
}

func TestEngineValidation(t *testing.T) {
	s := mustCyclic(t, []int{1})
	cases := map[string][]Agent{
		"too-few":    {{Name: "a", Sched: s}},
		"dup-name":   {{Name: "a", Sched: s}, {Name: "a", Sched: s}},
		"empty-name": {{Name: "", Sched: s}, {Name: "b", Sched: s}},
		"neg-wake":   {{Name: "a", Sched: s, Wake: -1}, {Name: "b", Sched: s}},
		"nil-sched":  {{Name: "a", Sched: nil}, {Name: "b", Sched: s}},
	}
	for name, agents := range cases {
		if _, err := NewEngine(agents); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSweepOffsetsStats(t *testing.T) {
	a := mustCyclic(t, []int{1, 2})
	b := mustCyclic(t, []int{2, 1})
	// offset 0: meet? a=1,b=2; slot1 a=2,b=1; never meet -> failure.
	// offset 1: b local s, a at s+1: s=0: a(1)=2, b(0)=2 meet at 0.
	st := SweepOffsets(a, b, []int{0, 1}, 10)
	if st.Samples != 2 || st.Failures != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Max != 0 || st.Mean() != 0 {
		t.Fatalf("unexpected max/mean: %+v", st)
	}
}

func TestMaxTTRExhaustiveVsSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 8
	a, err := schedule.NewGeneral(n, []int{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule.NewGeneral(n, []int{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	horizon := a.RendezvousBound(2)
	ex := MaxTTR(rng, a, b, horizon, 1<<20, 0)
	if ex.Failures > 0 {
		t.Fatalf("exhaustive sweep saw failures: %+v", ex)
	}
	sam := MaxTTR(rng, a, b, horizon, 1, 200)
	if sam.Failures > 0 {
		t.Fatalf("sampled sweep saw failures: %+v", sam)
	}
	if sam.Max > ex.Max {
		t.Fatalf("sampled max %d exceeds exhaustive max %d", sam.Max, ex.Max)
	}
}

func TestRandomBaselineUnderSweep(t *testing.T) {
	// Integration: the random strawman meets eventually at every offset.
	a, err := baselines.NewRandom(16, []int{1, 2, 9}, 1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := baselines.NewRandom(16, []int{9, 12}, 2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	st := SweepOffsets(a, b, ExhaustiveOffsets(500), 5000)
	if st.Failures > 0 {
		t.Fatalf("random baseline failed %d/%d offsets", st.Failures, st.Samples)
	}
}

func TestWorkloadGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(60)
		ka := 1 + rng.Intn(min(6, n))
		kb := 1 + rng.Intn(min(6, n))
		w := RandomOverlappingPair(rng, n, ka, kb)
		if len(w.A) != ka || len(w.B) != kb {
			t.Fatalf("sizes: %+v want ka=%d kb=%d", w, ka, kb)
		}
		if !SetsIntersect(w.A, w.B) {
			t.Fatalf("no overlap: %+v", w)
		}
		checkInRange(t, n, w.A)
		checkInRange(t, n, w.B)

		m := 1 + rng.Intn(min(ka, kb))
		if ka+kb-m <= n {
			w2 := RandomPairWithIntersection(rng, n, ka, kb, m)
			if got := intersectionSize(w2.A, w2.B); got != m {
				t.Fatalf("intersection %d, want %d: %+v", got, m, w2)
			}
		}
	}
}

func TestAdversarialPairsValid(t *testing.T) {
	for _, n := range []int{4, 8, 64, 1024} {
		for _, w := range AdversarialPairs(n) {
			if !SetsIntersect(w.A, w.B) {
				t.Fatalf("n=%d: adversarial pair does not overlap: %+v", n, w)
			}
			checkInRange(t, n, w.A)
			checkInRange(t, n, w.B)
		}
	}
}

func TestFullSet(t *testing.T) {
	got := FullSet(4)
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FullSet(4) = %v", got)
		}
	}
}

func checkInRange(t *testing.T, n int, set []int) {
	t.Helper()
	seen := map[int]bool{}
	for _, c := range set {
		if c < 1 || c > n {
			t.Fatalf("channel %d outside [1,%d]", c, n)
		}
		if seen[c] {
			t.Fatalf("duplicate channel %d in %v", c, set)
		}
		seen[c] = true
	}
}

func intersectionSize(a, b []int) int {
	in := map[int]bool{}
	for _, x := range a {
		in[x] = true
	}
	count := 0
	for _, y := range b {
		if in[y] {
			count++
		}
	}
	return count
}

// TestRunParallelMatchesRun: Run and RunParallel must reproduce the
// per-slot oracle exactly, at every worker count.
func TestRunParallelMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var agents []Agent
	for i := 0; i < 6; i++ {
		w := RandomOverlappingPair(rng, 64, 3, 3)
		s, err := schedule.NewAsync(64, w.A)
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, Agent{Name: fmt.Sprintf("a%d", i), Sched: s, Wake: rng.Intn(300)})
	}
	// One agent disjoint from most others exercises the skip path.
	eng, err := NewEngine(agents)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 20_000
	want := slotRun(eng, horizon, nil)
	if got := eng.Run(horizon).Meetings(); !reflect.DeepEqual(got, want.Meetings()) {
		t.Fatalf("Run: %v, want %v", got, want.Meetings())
	}
	for _, workers := range []int{0, 1, 2, 8} {
		got := eng.RunParallel(horizon, workers)
		if len(got.Meetings()) != len(want.Meetings()) {
			t.Fatalf("workers=%d: %d meetings, want %d", workers, len(got.Meetings()), len(want.Meetings()))
		}
		for _, m := range want.Meetings() {
			g, ok := got.Meeting(m.A, m.B)
			if !ok || g != m {
				t.Fatalf("workers=%d: meeting %v != %v (ok=%v)", workers, g, m, ok)
			}
		}
	}
}

// TestRunParallelEnvMatchesOracle drives RunParallelEnv on a mixed fleet
// with churn across worker counts and environments against the per-slot
// oracle.
func TestRunParallelEnvMatchesOracle(t *testing.T) {
	mixed, err := NewEngine(jointTestFleet(t, rand.New(rand.NewSource(23)), 9))
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range []Environment{nil, evenSlotsBlocked{}, channelBlocked(3)} {
		want := renderMeetings(slotRun(mixed, 3000, env))
		for _, workers := range []int{0, 1, 2, 5, 16} {
			if got := renderMeetings(mixed.RunParallelEnv(3000, workers, env)); got != want {
				t.Fatalf("mixed fleet env=%v workers=%d: got %s want %s", env, workers, got, want)
			}
		}
	}
}

// TestRunParallelDynamicSchedules: the disjoint-pair prune must use the
// complete hop set, not the steady-state Channels(). Two Dynamic agents
// share channel 5 only in their first phase; their final-phase sets are
// disjoint, so a Channels()-based prune would wrongly drop the pair.
func TestRunParallelDynamicSchedules(t *testing.T) {
	da, err := schedule.NewDynamic(8, []schedule.Phase{
		{FromSlot: 0, Channels: []int{5}},
		{FromSlot: 1000, Channels: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := schedule.NewDynamic(8, []schedule.Phase{
		{FromSlot: 0, Channels: []int{5}},
		{FromSlot: 1000, Channels: []int{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine([]Agent{
		{Name: "a", Sched: da},
		{Name: "b", Sched: db},
	})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 2000
	want := slotRun(eng, horizon, nil)
	if len(want.Meetings()) != 1 {
		t.Fatalf("the oracle should record the phase-0 meeting, got %d", len(want.Meetings()))
	}
	for _, workers := range []int{1, 4} {
		got := eng.RunParallel(horizon, workers)
		if len(got.Meetings()) != 1 {
			t.Fatalf("workers=%d: pairwise engine pruned a pair that meets in an early phase (%d meetings)",
				workers, len(got.Meetings()))
		}
		if got.Meetings()[0] != want.Meetings()[0] {
			t.Fatalf("workers=%d: meeting mismatch: %+v vs %+v", workers, got.Meetings()[0], want.Meetings()[0])
		}
	}
	// AllMet shares the prune helper and must consider the pair too.
	if !want.AllMet(eng.agents) {
		t.Error("AllMet should report the dynamic pair as met")
	}
}
