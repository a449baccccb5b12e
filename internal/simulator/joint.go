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
// per-pair minimum across windows. The decomposition is exact,
// which makes the Result byte-identical to Run at any worker count.
//
// Windows are dispatched in increasing time order, which preserves most
// of the serial engine's early-exit win: once every meetable pair has a
// recorded hit, every not-yet-started window lies strictly later than
// every window that produced those hits, so any meeting it could find
// would be at a later slot than an existing hit for its pair — skipping
// it cannot change any per-pair minimum. In-flight windows always run
// to completion under early exit (one of them may still hold a pair's
// true first meeting), so the early exit affects wall-clock only, never
// the Result. External cancellation (Canceler) is the one exception:
// it stops in-flight windows at their next block boundary too, trading
// completeness for latency — the merged Result is then a partial subset
// of the true first meetings, which is exactly the Canceler contract.

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

// RunJointParallel computes the same Result as Run by sharding the
// joint posting scan over contiguous time windows executed by a
// bounded worker pool (workers ≤ 0 means GOMAXPROCS). Results are
// byte-identical to Run at any worker count; see the package comment
// above for why the decomposition is exact.
func (e *Engine) RunJointParallel(horizon, workers int) *Result {
	return e.RunJointParallelEnv(horizon, workers, nil)
}

// RunJointParallelEnv is RunJointParallel under an optional
// Environment; see RunEnv for the availability semantics.
func (e *Engine) RunJointParallelEnv(horizon, workers int, env Environment) *Result {
	return e.runJointParallelEnvInto(e.newResult(horizon), horizon, workers, env, e.meetablePairs(horizon), nil)
}

// scanKind selects the scan a joint run uses. The posting kinds honor
// the same hit-array/seen-bitset contracts, and the serial fallback
// computes the same Result, so routing is invisible in the Result; see
// scanKindFor for the gating.
type scanKind int

const (
	scanSerial       scanKind = iota // serial occupancy scan (runBlock)
	scanInverted                     // posting scan, register-resident group bitsets
	scanInvertedWide                 // posting scan, 64×64-word sharded group bitsets
	scanSparse                       // contact-topology cell-filtered posting scan
)

// route maps a scan kind to its reported Route.
func (k scanKind) route() Route {
	switch k {
	case scanInverted:
		return RouteInverted
	case scanInvertedWide:
		return RouteInvertedWide
	case scanSparse:
		return RouteSparse
	}
	return RouteSerial
}

// runJointParallelEnvInto is the shared body, writing into the
// caller-owned result; meetable is the caller's meetablePairs(horizon)
// count, so routing callers that already counted (RunParallelEnv's
// routing rule) never scan the pair space twice.
func (e *Engine) runJointParallelEnvInto(res *Result, horizon, workers int, env Environment, meetable int, c *Canceler) *Result {
	if horizon <= 0 {
		e.setRoute(RouteSerial)
		return res
	}
	// Every fleet takes a posting scan (even single-worker: the win is
	// algorithmic, not parallel — see inverted.go) except the two shapes
	// scanKindFor sends to the serial scan, which is the same
	// computation.
	kind := e.scanKindFor(horizon)
	e.setRoute(kind.route())
	if kind == scanSerial {
		e.runBlock(res, horizon, env, meetable, c)
		return res
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	window := jointWindow(horizon, workers)
	if workers > (horizon+window-1)/window {
		workers = (horizon + window - 1) / window
	}
	e.runJointSharded(res, horizon, workers, window, env, meetable, kind, c)
	return res
}

// getHits returns a zeroed per-pair hit array of length pairs from the
// engine's pool.
func (e *Engine) getHits(pairs int) []hit32 {
	hp, _ := e.hitPool.Get().(*[]hit32)
	if hp == nil || cap(*hp) < pairs {
		h := make([]hit32, pairs)
		return h
	}
	h := (*hp)[:pairs]
	clear(h)
	return h
}

// runJointSharded is the sharded scan proper. window must be a positive
// multiple of blockLen; it and the meetable count are parameters
// (rather than derived here) so tests can pin partition invariance
// directly. kind selects the posting kernel a worker runs per window;
// every kernel honors the identical hit-array and seen-bitset contracts
// over the engine's pair space, so the merge below is shared.
func (e *Engine) runJointSharded(res *Result, horizon, workers, window int, env Environment, meetableCount int, kind scanKind, c *Canceler) {
	pairs := e.ps.slots
	meetable := int64(meetableCount)
	if meetable == 0 {
		return
	}
	plan := e.planFor(horizon)
	defer e.planPool.Put(plan)
	windows := (horizon + window - 1) / window
	if workers > windows {
		workers = windows
	}
	// seen is the shared pair-has-a-hit-somewhere bitset driving
	// ordered-window cancellation; seenCount trips done when the last
	// meetable pair gets its first hit. Neither influences the Result —
	// the merge below recomputes exact minima from the per-worker
	// arrays.
	seen := e.getSeen(pairs)
	var tmpl, full []uint64
	if kind != scanSparse {
		tmpl, full = e.metSeed(horizon)
	}
	var seenCount atomic.Int64
	var done atomic.Bool
	var nextWin atomic.Int64
	// winOK tracks which windows were scanned to completion, but only on
	// cancellable runs: a cancelled worker can abandon a window mid-way
	// while a later window's hits already landed, and merging those later
	// hits unfiltered could record a non-first meeting. The merge below
	// clamps to the completed-window frontier instead, making a cancelled
	// run byte-identical to an uncancelled run over a block-aligned
	// horizon prefix. Uncancellable runs (c == nil, the common case) skip
	// the tracking entirely.
	var winOK []atomic.Bool
	if c != nil {
		winOK = make([]atomic.Bool, windows)
	}
	perWorker := e.getWorkerSets(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := e.getJointScratch()
			defer e.jointPool.Put(sc)
			hits := e.getHits(pairs)
			perWorker[w] = hits
			st := &shardState{hits: hits, env: env, seen: seen,
				seenCount: &seenCount, done: &done, meetable: meetable,
				solo: workers == 1, cancel: c}
			psc := e.getPostingScratch(kind, tmpl, full)
			defer e.postPool.Put(psc)
			for !done.Load() && !c.Canceled() {
				wi := int(nextWin.Add(1)) - 1
				if wi >= windows {
					return
				}
				lo := wi * window
				hi := min(lo+window, horizon)
				complete := e.scanShardPosting(plan, sc, psc, st, lo, hi, kind)
				if winOK != nil && complete {
					winOK[wi].Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
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
		for wi := range winOK {
			if !winOK[wi].Load() {
				frontier = wi
				break
			}
		}
		if done.Load() && int64(frontier) >= nextWin.Load() {
			frontier = windows
		}
		limit = int32(min(int64(frontier)*int64(window), int64(horizon))) + 1
	}
	e.ps.forEach(func(p, i, j int) {
		if seen[p>>6]&(1<<(p&63)) == 0 {
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
	for w := range perWorker {
		h := perWorker[w]
		e.hitPool.Put(&h)
	}
	e.putWorkerSets(perWorker)
	e.putSeen(seen)
}

// getSeen returns a zeroed pairs-bit bitset from the engine's pool.
func (e *Engine) getSeen(pairs int) []uint64 {
	words := (pairs + 63) / 64
	sp, _ := e.seenPool.Get().(*[]uint64)
	if sp == nil || cap(*sp) < words {
		return make([]uint64, words)
	}
	s := (*sp)[:words]
	clear(s)
	return s
}

func (e *Engine) putSeen(s []uint64) { e.seenPool.Put(&s) }

// getWorkerSets returns a length-workers slice of per-worker hit-array
// slots (contents nil; workers fill them).
func (e *Engine) getWorkerSets(workers int) [][]hit32 {
	wp, _ := e.workerPool.Get().(*[][]hit32)
	if wp == nil || cap(*wp) < workers {
		return make([][]hit32, workers)
	}
	pw := (*wp)[:workers]
	clear(pw)
	return pw
}

func (e *Engine) putWorkerSets(pw [][]hit32) {
	clear(pw) // the hit arrays went back to hitPool; do not retain them here
	e.workerPool.Put(&pw)
}

// setSeenBit atomically sets pair p's bit in the shared seen bitset,
// reporting whether this call flipped it. Deliberately a Load+CAS loop
// rather than atomic.OrUint64: the go1.24.0 compiler miscompiles the
// Or intrinsic's enclosing scan kernels — later candidates in the same
// loop silently dropped, or call arguments corrupted — in optimized
// builds only (-N -l and -race builds are correct). Caught by
// TestPropContactEngines; see also the miscompilation guard on
// scanGroupSparse. Do not "simplify" this back to atomic.OrUint64
// without re-running the proptest soak.
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
