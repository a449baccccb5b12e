package simulator

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rendezvous/internal/tablecache"
)

// cancelKernel describes one scan kernel's cancellation fixture: how to
// build an engine that routes to it and how to run a session on it.
type cancelKernel struct {
	name    string
	workers []int
	build   func(t *testing.T, rng *rand.Rand) *Engine
	run     func(s *Session, horizon, workers int) *Result
	// oracle computes the uncancelled run through the other
	// decomposition, so no kernel is checked against itself.
	oracle func(e *Engine, horizon int) *Result
}

// cancelKernels covers every kernel a public entry point reaches on a
// small fleet: pairwise (on triangular and on contact-edge CSR pair
// state) and inverted (through the sharded driver at one worker and at
// several). Each build picks a fleet (for the CSR row, a contact
// fleet) that routes to its kernel, so the tests pin the cancellation
// seam per kernel.
func cancelKernels() []cancelKernel {
	parallel := func(s *Session, horizon, workers int) *Result {
		return s.RunParallelEnv(horizon, workers, nil)
	}
	joint := func(s *Session, horizon, workers int) *Result {
		return s.RunJointParallelEnv(horizon, workers, nil)
	}
	jointOracle := func(e *Engine, horizon int) *Result { return e.RunJointParallelEnv(horizon, 1, nil) }
	pairwiseOracle := func(e *Engine, horizon int) *Result { return pairwiseRun(e, horizon, nil) }
	// dense and topo are the csr row's oracle: the same fleet without a
	// topology, on which the joint entry point runs the inverted scan,
	// filtered to the pairs topo puts in range. The row's build sets
	// them, and the fleet, before any oracle call.
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
				// 10 agents sit far below jointPairFloor, so RunParallelEnv
				// routes to the pairwise kernel.
				eng, err := NewEngine(jointTestFleet(t, rng, 10))
				if err != nil {
					t.Fatal(err)
				}
				return eng
			},
			run:    parallel,
			oracle: jointOracle,
		},
		{
			name:    "sharded",
			workers: []int{1, 3},
			build: func(t *testing.T, rng *rand.Rand) *Engine {
				// Even a 10-agent fleet takes the time-sharded posting
				// driver, also at one worker: workers=1 runs its solo
				// seen-bitset path, which the multi-worker rows miss.
				eng, err := NewEngine(jointTestFleet(t, rng, 10))
				if err != nil {
					t.Fatal(err)
				}
				return eng
			},
			run:    joint,
			oracle: pairwiseOracle,
		},
		{
			name:    "inverted",
			workers: []int{2, 5},
			build: func(t *testing.T, rng *rand.Rand) *Engine {
				// A dense fleet within the posting member cap: the joint
				// entry point routes to the inverted posting scan.
				eng, err := NewEngine(jointTestFleet(t, rng, 12))
				if err != nil {
					t.Fatal(err)
				}
				return eng
			},
			run:    joint,
			oracle: pairwiseOracle,
		},
		{
			name:    "csr",
			workers: []int{2, 5},
			build: func(t *testing.T, rng *rand.Rand) *Engine {
				// CSR pair state routes even the joint entry point to the
				// pairwise kernel.
				const n = 24
				fleet = jointTestFleet(t, rng, n)
				topo = randomTopology(rng, n, 3, 3, 1.0)
				var eng *Engine
				eng, dense = contactTwins(t, fleet, topo)
				return eng
			},
			run: joint,
			oracle: func(_ *Engine, horizon int) *Result {
				return inRangeOnly(dense.RunJointParallelEnv(horizon, 1, nil), fleet, topo)
			},
		},
	}
}

// TestCancelMidRun pins the cancellation contract at window boundaries
// for every scan kernel: a cancel before the first window yields an
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
				if got := k.run(sess, horizon, workers); got.MetCount() != 0 {
					t.Fatalf("workers=%d: cancel before first window recorded %d meetings", workers, got.MetCount())
				}
				// Mid-scan, at several window boundaries.
				for _, polls := range []int64{2, 3, 5, 9} {
					canc = &Canceler{}
					canc.CancelAfterPolls(polls)
					sess.SetCanceler(canc)
					partial := k.run(sess, horizon, workers)
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
					if got := renderMeetings(k.run(sess, horizon, workers)); got != want {
						t.Fatalf("workers=%d polls=%d: post-cancel re-run diverged:\n got %s\nwant %s",
							workers, polls, got, want)
					}
				}
				// Past the last window: never fires, result uncancelled.
				canc = &Canceler{}
				canc.CancelAfterPolls(1 << 40)
				sess.SetCanceler(canc)
				if got := renderMeetings(k.run(sess, horizon, workers)); got != want {
					t.Fatalf("workers=%d: unfired canceler changed the result:\n got %s\nwant %s", workers, got, want)
				}
				if canc.Canceled() {
					t.Fatalf("workers=%d: oversized poll budget fired", workers)
				}
			}
		})
	}
}

// TestCancelSerialRun covers cancellation of Session.RunEnv, which takes
// the router at one worker: on a small fleet it runs the pairwise scan,
// on a dense one above jointPairFloor (32,768 meetable pairs) the
// posting driver's solo path. Both poll at the same block cadence; a
// cancelled run records only true first meetings, and a Reset + re-run
// on the same session reproduces the other decomposition's result.
func TestCancelSerialRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fleet  func(t *testing.T, rng *rand.Rand) []Agent
		route  Route
		oracle func(e *Engine, horizon int) *Result
	}{
		{
			name:   "pairwise",
			fleet:  func(t *testing.T, rng *rand.Rand) []Agent { return jointTestFleet(t, rng, 8) },
			route:  RoutePairwise,
			oracle: func(e *Engine, horizon int) *Result { return e.RunJointParallelEnv(horizon, 1, nil) },
		},
		{
			name:   "joint",
			fleet:  func(t *testing.T, rng *rand.Rand) []Agent { return routeFleet(t, rng, 200, 200) }, // 39,800 meetable pairs
			route:  RouteInverted,
			oracle: func(e *Engine, horizon int) *Result { return pairwiseRun(e, horizon, nil) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(tc.fleet(t, rand.New(rand.NewSource(101))))
			if err != nil {
				t.Fatal(err)
			}
			const horizon = 4096
			fullRes := tc.oracle(eng, horizon)
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
			if r := eng.LastRoute(); r != tc.route {
				t.Fatalf("Session.RunEnv routed %v, want %v", r, tc.route)
			}
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
}

// TestCancelLeavesNoPins pins the resource half of the contract: a
// cancelled run (any kernel) leaves the engine's cache pins exactly as
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
				k.run(sess, horizon, k.workers[len(k.workers)-1])
			}
			sess.Close()
			if st := cache.Stats(); st.Pinned != 0 || st.Refs != 0 {
				t.Fatalf("cancelled runs leaked pins: %+v", st)
			}
		})
	}
}

// cancelRaceEnv forces one interleaving of a two-worker sharded run
// over windows [0, 512) and [512, 1024): the worker in the first window
// blocks at slot 0 until the worker in the second window has consulted
// slot 512, which cancels the run and then lets that second worker
// record the fleet's last hit — so the early exit fires while the first
// window, which holds the pair's true first meeting at slot 300, is
// still in flight.
type cancelRaceEnv struct {
	c       *Canceler
	release chan struct{}
	once    sync.Once
}

func (e *cancelRaceEnv) Available(ch, t int) bool {
	switch t {
	case 0:
		<-e.release
	case 512:
		e.once.Do(func() {
			e.c.Cancel()
			close(e.release)
		})
	}
	return t >= 300
}

// TestCancelAfterEarlyExit pins the merge frontier when cancellation
// lands after the early exit: the first window was abandoned before
// reaching slot 300, so the only hit the run holds (slot 512) is not the
// pair's first meeting and must not be recorded.
func TestCancelAfterEarlyExit(t *testing.T) {
	s := mustCyclic(t, []int{5})
	eng, err := NewEngine([]Agent{{Name: "a", Sched: s}, {Name: "b", Sched: s}})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 1024
	env := &cancelRaceEnv{c: &Canceler{}, release: make(chan struct{})}
	res := eng.newResult(horizon)
	eng.runJointSharded(res, horizon, 2, 512, env, eng.meetablePairs(horizon), env.c)
	if m, ok := res.Meeting("a", "b"); ok {
		t.Fatalf("cancelled run recorded %+v, but the first meeting is at slot 300", m)
	}
}

// TestCancelPostingWindowPrefix pins the cancellation contract on the
// posting scan driven directly through runJointSharded, on a fleet
// spanning two posting words. A cancelled run must equal the
// uncancelled run cut at a window boundary (the partial-prefix
// contract), and a re-run into the same reset Result on the same
// engine, reusing the scratch the cancelled run pooled, must reproduce
// the uncancelled run exactly.
func TestCancelPostingWindowPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	eng, err := NewEngine(jointTestFleet(t, rng, 70)) // two posting words
	if err != nil {
		t.Fatal(err)
	}
	const horizon, window = 4096, 512
	meetable := eng.meetablePairs(horizon)
	full := pairwiseRun(eng, horizon, nil).Meetings()
	if len(full) == meetable {
		// Some pairs must stay unmet, so no early exit ends a run before
		// the canceler's poll budget runs out.
		t.Fatalf("fixture meets all %d meetable pairs", meetable)
	}
	for _, workers := range []int{1, 2, 5} {
		res := eng.newResult(horizon)
		for _, polls := range []int64{1, 2, 3, 5, 9} {
			canc := &Canceler{}
			canc.CancelAfterPolls(polls)
			res.reset(horizon)
			eng.runJointSharded(res, horizon, workers, window, nil, meetable, canc)
			if !canc.Canceled() {
				t.Fatalf("workers=%d polls=%d: canceler did not fire", workers, polls)
			}
			if !isWindowPrefix(res.Meetings(), full, window) {
				t.Fatalf("workers=%d polls=%d: cancelled run's %d meetings are no window-aligned prefix of the full run's %d",
					workers, polls, res.MetCount(), len(full))
			}
			if polls == 1 && res.MetCount() != 0 {
				t.Fatalf("workers=%d: cancel before the first window recorded %d meetings", workers, res.MetCount())
			}
			res.reset(horizon)
			eng.runJointSharded(res, horizon, workers, window, nil, meetable, nil)
			if got := res.Meetings(); !slices.Equal(got, full) {
				t.Fatalf("workers=%d polls=%d: post-cancel re-run diverged:\n got %v\nwant %v", workers, polls, got, full)
			}
		}
	}
}

// isWindowPrefix reports whether partial is exactly the meetings of
// full (both in Meetings order) that fall before some multiple of
// window.
func isWindowPrefix(partial, full []Meeting, window int) bool {
	cut := 0
	for lim := 0; ; lim += window {
		for cut < len(full) && full[cut].Slot < lim {
			cut++
		}
		if slices.Equal(partial, full[:cut]) {
			return true
		}
		if cut == len(full) {
			return false
		}
	}
}
