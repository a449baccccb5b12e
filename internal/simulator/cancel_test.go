package simulator

import (
	"math/rand"
	"testing"

	"rendezvous/internal/tablecache"
)

// cancelKernel describes one cancellation fixture: how to build an
// engine of one fleet shape, the worker counts to cancel it at, and its
// oracle.
type cancelKernel struct {
	name    string
	workers []int
	build   func(t *testing.T, rng *rand.Rand) *Engine
	// oracle computes the uncancelled run with the per-slot oracle, so
	// the scan is never checked against itself.
	oracle func(e *Engine, horizon int) *Result
}

// cancelRun is the session run every fixture cancels: RunParallelEnv,
// the call rvserve's jobs make.
func cancelRun(s *Session, horizon, workers int) *Result {
	return s.RunParallelEnv(horizon, workers, nil)
}

// cancelKernels covers the pairwise scan's pair-state layouts and
// chunkings on small fleets: triangular state split into one chunk or
// a few ("pairwise"), triangular state split into many chunks per
// worker ("sharded"), and contact-edge CSR state ("csr"), so the tests
// pin the cancellation seam on each.
func cancelKernels() []cancelKernel {
	slotOracle := func(e *Engine, horizon int) *Result { return slotRun(e, horizon, nil) }
	// dense and topo are the csr row's oracle: the same fleet without a
	// topology, filtered to the pairs topo puts in range. The row's
	// build sets them, and the fleet, before any oracle call.
	var (
		dense *Engine
		fleet []Agent
		topo  *ContactTopology
	)
	return []cancelKernel{
		{
			name:    "pairwise",
			workers: []int{1, 3},
			build: func(t *testing.T, rng *rand.Rand) *Engine {
				eng, err := NewEngine(jointTestFleet(t, rng, 10))
				if err != nil {
					t.Fatal(err)
				}
				return eng
			},
			oracle: slotOracle,
		},
		{
			name:    "sharded",
			workers: []int{2, 5},
			build: func(t *testing.T, rng *rand.Rand) *Engine {
				// Hundreds of meetable pairs: four chunks per worker, so
				// workers claim several chunks each and a cancel lands
				// between claims as well as inside a chunk.
				eng, err := NewEngine(jointTestFleet(t, rng, 40))
				if err != nil {
					t.Fatal(err)
				}
				return eng
			},
			oracle: slotOracle,
		},
		{
			name:    "csr",
			workers: []int{2, 5},
			build: func(t *testing.T, rng *rand.Rand) *Engine {
				const n = 24
				fleet = jointTestFleet(t, rng, n)
				topo = randomTopology(rng, n, 3, 3, 1.0)
				var eng *Engine
				eng, dense = contactTwins(t, fleet, topo)
				return eng
			},
			oracle: func(_ *Engine, horizon int) *Result {
				return inRangeOnly(slotRun(dense, horizon, nil), fleet, topo)
			},
		},
	}
}

// TestCancelMidRun pins the cancellation contract at window boundaries
// for every fixture: a cancel before the first window yields an
// empty result, a mid-scan cancel yields a subset of the uncancelled
// run's meetings (each recorded meeting byte-identical to the full
// run's for that pair), a budget past the last window is
// indistinguishable from no canceler at all — and after any of them, a
// Reset + re-run on the same session reproduces the fresh engine's
// result exactly.
func TestCancelMidRun(t *testing.T) {
	for _, k := range cancelKernels() {
		t.Run(k.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(97))
			eng := k.build(t, rng)
			const horizon = 4096
			fullRes := k.oracle(eng, horizon)
			want := renderMeetings(fullRes)
			fullByPair := map[[2]string]Meeting{}
			for _, m := range fullRes.Meetings() {
				fullByPair[[2]string{m.A, m.B}] = m
			}
			for _, workers := range k.workers {
				sess := eng.Session()
				// Before the first window: the very first block check fires.
				canc := &Canceler{}
				canc.CancelAfterPolls(1)
				sess.SetCanceler(canc)
				if got := cancelRun(sess, horizon, workers); got.MetCount() != 0 {
					t.Fatalf("workers=%d: cancel before first window recorded %d meetings", workers, got.MetCount())
				}
				// Mid-scan, at several window boundaries.
				for _, polls := range []int64{2, 3, 5, 9} {
					canc = &Canceler{}
					canc.CancelAfterPolls(polls)
					sess.SetCanceler(canc)
					partial := cancelRun(sess, horizon, workers)
					if !canc.Canceled() {
						t.Fatalf("workers=%d polls=%d: canceler did not fire", workers, polls)
					}
					for _, m := range partial.Meetings() {
						if fullByPair[[2]string{m.A, m.B}] != m {
							t.Fatalf("workers=%d polls=%d: cancelled run recorded %+v, full run has %+v",
								workers, polls, m, fullByPair[[2]string{m.A, m.B}])
						}
					}
					// Reset + re-run must be byte-identical to a fresh engine.
					sess.SetCanceler(nil)
					sess.Reset()
					if got := renderMeetings(cancelRun(sess, horizon, workers)); got != want {
						t.Fatalf("workers=%d polls=%d: post-cancel re-run diverged:\n got %s\nwant %s",
							workers, polls, got, want)
					}
				}
				// Past the last window: never fires, result uncancelled.
				canc = &Canceler{}
				canc.CancelAfterPolls(1 << 40)
				sess.SetCanceler(canc)
				if got := renderMeetings(cancelRun(sess, horizon, workers)); got != want {
					t.Fatalf("workers=%d: unfired canceler changed the result:\n got %s\nwant %s", workers, got, want)
				}
				if canc.Canceled() {
					t.Fatalf("workers=%d: oversized poll budget fired", workers)
				}
			}
		})
	}
}

// TestCancelSerialRun covers cancellation of Session.RunEnv, the scan
// at one worker: a cancelled run records only true first meetings, and
// a Reset + re-run on the same session reproduces the oracle's result.
func TestCancelSerialRun(t *testing.T) {
	t.Run("pairwise", func(t *testing.T) {
		eng, err := NewEngine(jointTestFleet(t, rand.New(rand.NewSource(101)), 8))
		if err != nil {
			t.Fatal(err)
		}
		const horizon = 4096
		fullRes := slotRun(eng, horizon, nil)
		want := renderMeetings(fullRes)
		full := map[[2]string]Meeting{}
		for _, m := range fullRes.Meetings() {
			full[[2]string{m.A, m.B}] = m
		}
		sess := eng.Session()
		canc := &Canceler{}
		canc.CancelAfterPolls(3)
		sess.SetCanceler(canc)
		partial := sess.RunEnv(horizon, nil)
		if !canc.Canceled() {
			t.Fatal("canceler did not fire")
		}
		for _, m := range partial.Meetings() {
			if full[[2]string{m.A, m.B}] != m {
				t.Fatalf("cancelled run recorded %+v not in the full run", m)
			}
		}
		sess.SetCanceler(nil)
		sess.Reset()
		if got := renderMeetings(sess.RunEnv(horizon, nil)); got != want {
			t.Fatalf("post-cancel re-run diverged:\n got %s\nwant %s", got, want)
		}
	})
}

// TestCancelLeavesNoPins pins the resource half of the contract: a
// cancelled run (any fixture) leaves the engine's cache pins exactly as
// trackable as an uncancelled one — Close releases every pin, and an
// isolated cache reports zero pinned entries afterwards.
func TestCancelLeavesNoPins(t *testing.T) {
	for _, k := range cancelKernels() {
		t.Run(k.name, func(t *testing.T) {
			cache := tablecache.New(32 << 20)
			prevCache := SetTableCache(cache)
			defer SetTableCache(prevCache)
			rng := rand.New(rand.NewSource(53))
			eng := k.build(t, rng)
			const horizon = 4096
			sess := eng.Session()
			for _, polls := range []int64{1, 4} {
				canc := &Canceler{}
				canc.CancelAfterPolls(polls)
				sess.SetCanceler(canc)
				cancelRun(sess, horizon, k.workers[len(k.workers)-1])
			}
			sess.Close()
			if st := cache.Stats(); st.Pinned != 0 || st.Refs != 0 {
				t.Fatalf("cancelled runs leaked pins: %+v", st)
			}
		})
	}
}

// cancelAfterExitEnv cancels the run the first time the scan consults
// channel 6, at slot 0, and makes channel 6 available only from slot
// 300 on; channel 5 is always available.
type cancelAfterExitEnv struct{ c *Canceler }

func (e cancelAfterExitEnv) Available(ch, t int) bool {
	if ch == 5 {
		return true
	}
	e.c.Cancel()
	return t >= 300
}

// TestCancelAfterEarlyExit pins what a cancel leaves behind at one
// worker: pair a–b meets at slot 0 and leaves the scan (its early
// exit) before pair c–d's first candidate slot cancels the run, so a–b
// keeps its meeting, while c–d, whose first meeting lies at slot 300,
// is stopped at the next window and records nothing — no later,
// non-first meeting either.
func TestCancelAfterEarlyExit(t *testing.T) {
	five, six := mustCyclic(t, []int{5}), mustCyclic(t, []int{6})
	eng, err := NewEngine([]Agent{
		{Name: "a", Sched: five}, {Name: "b", Sched: five},
		{Name: "c", Sched: six}, {Name: "d", Sched: six},
	})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 1024
	c := &Canceler{}
	res := eng.runPairwiseEnvInto(eng.newResult(horizon), horizon, 1, cancelAfterExitEnv{c}, c)
	if !c.Canceled() {
		t.Fatal("the scan never consulted channel 6")
	}
	if m, ok := res.Meeting("a", "b"); !ok || m.Slot != 0 {
		t.Fatalf("a-b: %+v ok=%v, want its meeting at slot 0 kept", m, ok)
	}
	if m, ok := res.Meeting("c", "d"); ok {
		t.Fatalf("cancelled run recorded %+v, but the scan stopped before c-d's first meeting at slot 300", m)
	}
	if res.MetCount() != 1 {
		t.Fatalf("%d meetings, want 1", res.MetCount())
	}
}
