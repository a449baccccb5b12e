package simulator

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Time-sharded joint engine.
//
// First rendezvous is a per-pair *minimum over time*: the earliest slot
// at which the pair co-hops an available channel. Minima decompose over
// any partition of the time axis, and every input to a slot's outcome —
// schedules, activity windows, Environment decisions — is a pure
// function of the slot. So the joint scan parallelizes by time:
// partition [0, horizon) into contiguous windows, scan each window
// independently into a private per-pair first-hit array, and take the
// per-pair minimum across windows. The decomposition is exact, which
// makes the Result byte-identical to the pairwise decomposition's at
// any worker count.
//
// Windows are dispatched in increasing time order, which keeps an early
// exit: once every meetable pair has a recorded hit, every
// not-yet-started window lies strictly later than every window that
// produced those hits, so any meeting it could find would be at a later
// slot than an existing hit for its pair — skipping it cannot change
// any per-pair minimum. With several workers, in-flight windows run to
// completion under early exit (one of them may still hold a pair's true
// first meeting), so the early exit affects wall-clock only, never the
// Result. A lone worker sees its hits in time order, so it also stops
// inside its window, at the next block. External cancellation
// (Canceler) is the one exception: it stops in-flight windows at their
// next block boundary too, trading completeness for latency — the
// merged Result is then a partial subset of the true first meetings,
// which is exactly the Canceler contract.

// hit32 is one worker's first observed meeting for a pair: s is the
// global slot + 1 (0 = no hit in this worker's windows) and ch the
// dense channel id. 8 bytes keeps the per-worker arrays compact at
// network scale (a 1024-agent fleet has ~524k pairs).
type hit32 struct {
	s, ch int32
}

// jointWindow picks the shard width for a horizon/worker pair: about
// four windows per worker for load balance, in whole blocks so the
// shard scans align with the block evaluators.
func jointWindow(horizon, workers int) int {
	win := (horizon + 4*workers - 1) / (4 * workers)
	win = (win + blockLen - 1) / blockLen * blockLen
	if win < blockLen {
		win = blockLen
	}
	return win
}

// RunJointParallel runs the time-sharded joint decomposition whatever
// the fleet size, over contiguous time windows executed by a bounded
// worker pool (workers ≤ 0 means GOMAXPROCS). Results are
// byte-identical to Run at any worker count; see the package comment
// above for why the decomposition is exact. Runs the posting scan does
// not take (see usesPostingScan) go to the pairwise decomposition
// instead.
func (e *Engine) RunJointParallel(horizon, workers int) *Result {
	return e.RunJointParallelEnv(horizon, workers, nil)
}

// RunJointParallelEnv is RunJointParallel under an optional
// Environment; see RunEnv for the availability semantics.
func (e *Engine) RunJointParallelEnv(horizon, workers int, env Environment) *Result {
	return e.runJointParallelEnvInto(e.newResult(horizon), horizon, workers, env, e.meetablePairs(horizon), nil)
}

// runJointParallelEnvInto is the shared body, writing into the
// caller-owned result; meetable is the caller's meetablePairs(horizon)
// count, so routing callers that already counted (RunParallelEnv's
// routing rule) never scan the pair space twice.
func (e *Engine) runJointParallelEnvInto(res *Result, horizon, workers int, env Environment, meetable int, c *Canceler) *Result {
	// Every fleet takes the posting scan (even single-worker: the win is
	// algorithmic, not parallel — see inverted.go) except the shapes
	// usesPostingScan rejects, which the pairwise decomposition computes
	// exactly at any horizon.
	if !e.usesPostingScan(horizon) {
		return e.runPairwiseEnvInto(res, horizon, workers, env, c)
	}
	e.setRoute(RouteInverted)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e.runJointSharded(res, horizon, workers, jointWindow(horizon, workers), env, meetable, c)
	return res
}

// shardRun is one time-sharded run's state: the inputs every worker
// reads, the shared completion and cancellation state, and each
// worker's hit array and view of the run. Recycled with its arrays
// through Engine.runPool, so a steady-state re-run allocates nothing.
type shardRun struct {
	plan                     *runPlan
	tmpl, full               []uint64 // metSeed's template and full-word masks
	horizon, window, windows int
	// seen is the shared pair-has-a-hit-somewhere bitset driving
	// ordered-window cancellation; seenCount trips done when the last
	// meetable pair gets its first hit. Neither influences the Result —
	// the merge recomputes exact minima from the per-worker arrays.
	seen      []uint64
	seenCount atomic.Int64
	done      atomic.Bool
	nextWin   atomic.Int64
	// winOK tracks which windows were scanned to completion: a cancelled
	// worker can abandon a window mid-way while a later window's hits
	// already landed, and merging those later hits unfiltered could
	// record a non-first meeting. The merge clamps to the
	// completed-window frontier instead, making a cancelled run
	// byte-identical to an uncancelled run over a block-aligned horizon
	// prefix.
	winOK []atomic.Bool
	hits  [][]hit32    // hits[w]: worker w's first hit per pair slot
	st    []shardState // st[w]: worker w's view of the run
	// wg joins workers 1..n-1; it lives here rather than on the stack
	// so the goroutine closures do not move it to the heap on every run.
	wg sync.WaitGroup
}

// getShardRun returns a pooled run state for workers workers over
// windows windows, with zeroed hit arrays, seen bitset and counters.
func (e *Engine) getShardRun(workers, windows int) *shardRun {
	r, _ := e.runPool.Get().(*shardRun)
	if r == nil {
		r = &shardRun{seen: make([]uint64, (e.ps.slots+63)/64)}
	}
	clear(r.seen)
	r.seenCount.Store(0)
	r.done.Store(false)
	r.nextWin.Store(0)
	if cap(r.winOK) < windows {
		r.winOK = make([]atomic.Bool, windows)
	}
	r.winOK = r.winOK[:windows]
	clear(r.winOK)
	for len(r.hits) < workers {
		r.hits = append(r.hits, make([]hit32, e.ps.slots))
		r.st = append(r.st, shardState{})
	}
	for _, h := range r.hits[:workers] {
		clear(h)
	}
	return r
}

// runJointSharded is the sharded scan proper. window must be a positive
// multiple of blockLen; it and the meetable count are parameters
// (rather than derived here) so tests can pin partition invariance
// directly.
func (e *Engine) runJointSharded(res *Result, horizon, workers, window int, env Environment, meetableCount int, c *Canceler) {
	meetable := int64(meetableCount)
	if meetable == 0 {
		return
	}
	windows := (horizon + window - 1) / window
	workers = min(workers, windows)
	r := e.getShardRun(workers, windows)
	r.plan, r.horizon, r.window, r.windows = e.planFor(horizon), horizon, window, windows
	r.tmpl, r.full = e.metSeed(horizon)
	for w := range workers {
		r.st[w] = shardState{hits: r.hits[w], env: env, seen: r.seen,
			seenCount: &r.seenCount, done: &r.done, meetable: meetable,
			solo: workers == 1, cancel: c}
	}
	// Worker 0 runs on the calling goroutine, so a solo run starts no
	// goroutine at all.
	r.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer r.wg.Done()
			e.scanWindows(r, w)
		}()
	}
	e.scanWindows(r, 0)
	r.wg.Wait()
	// Serial merge: the per-pair minimum slot across workers. Each
	// worker processed its windows in increasing time order and kept
	// only its first hit per pair, so the minimum over workers is the
	// global first meeting. On a cancelled run the minimum is only
	// trustworthy up to the first incomplete window — a hit beyond that
	// frontier may not be its pair's first — so the merge discards
	// everything past it. Windows the early exit never claimed do not
	// count as incomplete: once done fired, every meetable pair holds a
	// hit from a claimed window, all of which lie earlier. But done does
	// not excuse a claimed window that cancellation abandoned, which may
	// hold a pair's true first meeting.
	limit := int32(math.MaxInt32)
	if c.Canceled() {
		frontier := windows
		for wi := range r.winOK {
			if !r.winOK[wi].Load() {
				frontier = wi
				break
			}
		}
		if r.done.Load() && int64(frontier) >= r.nextWin.Load() {
			frontier = windows
		}
		limit = int32(min(int64(frontier)*int64(window), int64(horizon))) + 1
	}
	perWorker := r.hits[:workers]
	e.ps.forEach(func(p, i, j int) {
		if r.seen[p>>6]&(1<<(p&63)) == 0 {
			return
		}
		best := hit32{}
		for w := range perWorker {
			if h := perWorker[w][p]; h.s != 0 && h.s < limit && (best.s == 0 || h.s < best.s) {
				best = h
			}
		}
		if best.s == 0 {
			return // the pair's only hits lie past the cancellation frontier
		}
		res.recordAt(p, int(best.s)-1, e.union[best.ch], max(e.agents[i].Wake, e.agents[j].Wake))
	})
	e.planPool.Put(r.plan)
	// Drop the run's references (plan, template, environment, canceler)
	// before pooling; the arrays stay.
	r.plan, r.tmpl, r.full = nil, nil, nil
	clear(r.st)
	e.runPool.Put(r)
}

// scanWindows is worker w's loop: it claims windows in increasing time
// order until none is left, every meetable pair has met, or the run is
// cancelled.
func (e *Engine) scanWindows(r *shardRun, w int) {
	st := &r.st[w]
	psc := e.getPostingScratch(r.tmpl, r.full)
	defer e.postPool.Put(psc)
	for !r.done.Load() && !st.cancel.Canceled() {
		wi := int(r.nextWin.Add(1)) - 1
		if wi >= r.windows {
			return
		}
		lo := wi * r.window
		if e.scanShardPosting(r.plan, psc, st, lo, min(lo+r.window, r.horizon)) {
			r.winOK[wi].Store(true)
		}
	}
}

// setSeenBit atomically sets pair p's bit in the shared seen bitset,
// reporting whether this call flipped it. Deliberately a Load+CAS loop
// rather than atomic.OrUint64: the go1.24.0 compiler miscompiles the
// Or intrinsic's enclosing scan kernels — later candidates in the same
// loop silently dropped, or call arguments corrupted — in optimized
// builds only (-N -l and -race builds are correct). Caught by
// TestPropContactEngines. Do not "simplify" this back to
// atomic.OrUint64 without re-running the proptest soak.
func setSeenBit(seen []uint64, p int) bool {
	w, m := p>>6, uint64(1)<<(p&63)
	for {
		old := atomic.LoadUint64(&seen[w])
		if old&m != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(&seen[w], old, old|m) {
			return true
		}
	}
}
