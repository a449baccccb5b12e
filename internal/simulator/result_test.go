package simulator

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestResultOneWordPerPair pins the result's footprint: one int per
// pair slot. The 512 agents' hop sets are pairwise disjoint, so no pair
// is meetable and a warm run allocates its Result and nothing that
// grows with the fleet: at most 8 B per pair slot plus a small
// constant. Keeping the slot, channel and TTR apart, with a met bitset
// beside them, allocates over 24 B per slot.
func TestResultOneWordPerPair(t *testing.T) {
	const agents, horizon = 512, 4096
	fleet := make([]Agent, agents)
	for i := range fleet {
		fleet[i] = Agent{Name: fmt.Sprintf("d%03d", i), Sched: mustCyclic(t, []int{i + 1})}
	}
	eng, err := NewEngine(fleet)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Run(horizon) // warms the compiled tables, the meetable count and the pooled scratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := eng.Run(horizon)
	runtime.ReadMemStats(&after)
	if res.MetCount() != 0 || eng.Tally(res).Meetable != 0 {
		t.Fatalf("fixture: disjoint hop sets met %d pairs of %d meetable", res.MetCount(), eng.Tally(res).Meetable)
	}
	slots := agents * (agents - 1) / 2
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*slots+64<<10); got > limit {
		t.Fatalf("a run over %d pair slots allocated %d B, want at most %d (8 B per slot and 64 KiB)", slots, got, limit)
	}
}

// TestMeetingAtSlotZero pins the word's zero: not met. A pair that meets
// at global slot 0 is stored as one, so it must read as met, with TTR 0
// and the channel both hop there, from every accessor, on a fresh
// engine result and on a session's recycled one.
func TestMeetingAtSlotZero(t *testing.T) {
	fleet := []Agent{
		{Name: "b", Sched: mustCyclic(t, []int{7, 5})},
		{Name: "a", Sched: mustCyclic(t, []int{7, 3})},
	}
	eng, err := NewEngine(fleet)
	if err != nil {
		t.Fatal(err)
	}
	want := Meeting{A: "a", B: "b", Slot: 0, Channel: 7, TTR: 0}
	sess := eng.Session()
	for _, workers := range []int{1, 3} {
		for name, res := range map[string]*Result{
			"engine":  eng.RunParallel(64, workers),
			"session": sess.RunParallel(64, workers),
		} {
			if m, ok := res.Meeting("b", "a"); !ok || m != want {
				t.Fatalf("%s workers=%d: Meeting = %+v, %v; want %+v", name, workers, m, ok, want)
			}
			if got := res.Meetings(); !slices.Equal(got, []Meeting{want}) {
				t.Fatalf("%s workers=%d: Meetings = %+v", name, workers, got)
			}
			if res.MetCount() != 1 || !res.AllMet(fleet) {
				t.Fatalf("%s workers=%d: MetCount %d, AllMet %v", name, workers, res.MetCount(), res.AllMet(fleet))
			}
			if got := eng.Tally(res); got != (PairTally{Meetable: 1, Met: 1}) {
				t.Fatalf("%s workers=%d: Tally = %+v", name, workers, got)
			}
		}
	}
}

// TestCancelledTallyMatchesMeetings pins the folded tally under
// cancellation: a chunk folds the meetings it recorded also when the
// run stops inside it, so after a cancelled session run MetCount and
// Tally equal a walk over Meetings(), and after Reset the session reads
// no meetings at all.
func TestCancelledTallyMatchesMeetings(t *testing.T) {
	for _, k := range cancelKernels() {
		t.Run(k.name, func(t *testing.T) {
			eng := k.build(t, rand.New(rand.NewSource(97)))
			const horizon = 4096
			meetable := eng.meetablePairs(horizon)
			full := k.oracle(eng, horizon).MetCount()
			for _, workers := range k.workers {
				sess := eng.Session()
				partial := false
				for _, polls := range []int64{2, 3, 5, 9} {
					canc := &Canceler{}
					canc.CancelAfterPolls(polls)
					sess.SetCanceler(canc)
					res := cancelRun(sess, horizon, workers)
					if !canc.Canceled() {
						t.Fatalf("workers=%d polls=%d: canceler did not fire", workers, polls)
					}
					ms := res.Meetings()
					partial = partial || (len(ms) > 0 && len(ms) < full)
					want := foldMeetings(ms)
					want.Meetable = meetable
					if res.MetCount() != len(ms) || eng.Tally(res) != want {
						t.Fatalf("workers=%d polls=%d: MetCount %d, Tally %+v; fold of Meetings %+v",
							workers, polls, res.MetCount(), eng.Tally(res), want)
					}
					sess.Reset()
					if res.MetCount() != 0 || len(res.Meetings()) != 0 || eng.Tally(res) != (PairTally{Meetable: meetable}) {
						t.Fatalf("workers=%d polls=%d: after Reset: MetCount %d, %d meetings, Tally %+v",
							workers, polls, res.MetCount(), len(res.Meetings()), eng.Tally(res))
					}
				}
				if !partial {
					t.Fatalf("workers=%d: fixture: no cancelled run recorded some but not all meetings", workers)
				}
			}
		})
	}
}
