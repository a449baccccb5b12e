package simulator

import (
	"testing"
)

// evenSlotsBlocked blocks every channel at even slots.
type evenSlotsBlocked struct{}

func (evenSlotsBlocked) Available(ch, t int) bool { return t%2 == 1 }

// channelBlocked blocks one channel at every slot.
type channelBlocked int

func (c channelBlocked) Available(ch, t int) bool { return ch != int(c) }

func TestLeaveValidation(t *testing.T) {
	s := mustCyclic(t, []int{1})
	for name, agents := range map[string][]Agent{
		"leave-before-wake": {{Name: "a", Sched: s, Wake: 10, Leave: 5}, {Name: "b", Sched: s}},
		"leave-at-wake":     {{Name: "a", Sched: s, Wake: 10, Leave: 10}, {Name: "b", Sched: s}},
		"negative-leave":    {{Name: "a", Sched: s, Leave: -3}, {Name: "b", Sched: s}},
	} {
		if _, err := NewEngine(agents); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := NewEngine([]Agent{
		{Name: "a", Sched: s, Wake: 3, Leave: 4}, {Name: "b", Sched: s},
	}); err != nil {
		t.Errorf("valid leave rejected: %v", err)
	}
}

// TestChurnLeaveSuppressesMeetings: an agent that powers off before a
// peer wakes can never meet it, on every engine path.
func TestChurnLeaveSuppressesMeetings(t *testing.T) {
	s := mustCyclic(t, []int{7})
	eng, err := NewEngine([]Agent{
		{Name: "early", Sched: s, Wake: 0, Leave: 10},
		{Name: "late", Sched: s, Wake: 20},
		{Name: "always", Sched: s, Wake: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(res *Result, label string) {
		t.Helper()
		if _, ok := res.Meeting("early", "late"); ok {
			t.Fatalf("%s: non-coexisting agents met", label)
		}
		m, ok := res.Meeting("early", "always")
		if !ok || m.Slot != 0 {
			t.Fatalf("%s: coexisting pair should meet at slot 0: %+v ok=%v", label, m, ok)
		}
		if m, ok := res.Meeting("late", "always"); !ok || m.Slot != 20 {
			t.Fatalf("%s: late pair should meet at wake: %+v ok=%v", label, m, ok)
		}
		// The early/late pair can never coexist, so it must not block
		// AllMet under churn.
		if !res.AllMet(eng.agents) {
			t.Fatalf("%s: AllMet must ignore pairs with disjoint activity windows", label)
		}
	}
	check(eng.Run(100), "Run")
	check(eng.RunParallel(100, 4), "RunParallel(4)")
}

// TestRunEnvNilMatchesRun: a nil environment is exactly the static run.
func TestRunEnvNilMatchesRun(t *testing.T) {
	a := mustCyclic(t, []int{1, 2, 3})
	b := mustCyclic(t, []int{3, 1, 2})
	eng, err := NewEngine([]Agent{
		{Name: "a", Sched: a}, {Name: "b", Sched: b, Wake: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := eng.Run(50).Meetings()
	got := eng.RunEnv(50, nil).Meetings()
	if len(want) != len(got) || (len(want) > 0 && want[0] != got[0]) {
		t.Fatalf("RunEnv(nil) diverged: %v vs %v", got, want)
	}
}

// TestEnvironmentDefersMeetings: an environment that blocks even slots
// must push first meetings to the first odd collision slot, identically
// at one worker and at two, and an environment blocking the only common
// channel must suppress them entirely.
func TestEnvironmentDefersMeetings(t *testing.T) {
	a := mustCyclic(t, []int{5})
	b := mustCyclic(t, []int{5})
	eng, err := NewEngine([]Agent{
		{Name: "a", Sched: a}, {Name: "b", Sched: b},
	})
	if err != nil {
		t.Fatal(err)
	}
	for label, res := range map[string]*Result{
		"workers=1": eng.RunEnv(100, evenSlotsBlocked{}),
		"workers=2": eng.RunParallelEnv(100, 2, evenSlotsBlocked{}),
	} {
		m, ok := res.Meeting("a", "b")
		if !ok || m.Slot != 1 {
			t.Fatalf("%s: want first meeting at slot 1, got %+v ok=%v", label, m, ok)
		}
	}
	if res := eng.RunEnv(100, channelBlocked(5)); res.MetCount() != 0 {
		t.Fatalf("blocked channel still met (workers=1): %d", res.MetCount())
	}
	if res := eng.RunParallelEnv(100, 2, channelBlocked(5)); res.MetCount() != 0 {
		t.Fatalf("blocked channel still met (workers=2): %d", res.MetCount())
	}
}

// TestMeetingUnknownNames: lookups for names outside the fleet must
// report no meeting instead of panicking.
func TestMeetingUnknownNames(t *testing.T) {
	s := mustCyclic(t, []int{1})
	eng, err := NewEngine([]Agent{{Name: "a", Sched: s}, {Name: "b", Sched: s}})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run(10)
	if _, ok := res.Meeting("a", "zz"); ok {
		t.Fatal("unknown name reported a meeting")
	}
	if _, ok := res.Meeting("a", "a"); ok {
		t.Fatal("self pair reported a meeting")
	}
}

// TestThreeWayCollision: three agents on one channel in one slot record
// all three pairwise meetings.
func TestThreeWayCollision(t *testing.T) {
	s := mustCyclic(t, []int{4})
	eng, err := NewEngine([]Agent{
		{Name: "a", Sched: s}, {Name: "b", Sched: s}, {Name: "c", Sched: s},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run(5)
	if res.MetCount() != 3 {
		t.Fatalf("want 3 meetings, got %d", res.MetCount())
	}
	for _, m := range res.Meetings() {
		if m.Slot != 0 || m.Channel != 4 {
			t.Fatalf("unexpected meeting %+v", m)
		}
	}
}
