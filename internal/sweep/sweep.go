// Package sweep is the deterministic parallel execution engine behind
// every experiment sweep in this repository. It runs an index space of
// independent jobs on a bounded worker pool and guarantees that results
// are byte-identical regardless of the worker count or OS scheduling:
//
//   - results land in a slice indexed by job number, never in arrival
//     order;
//   - randomized jobs draw from an RNG derived purely from (Seed, job
//     index) via a SplitMix64 finalizer, so no job observes another
//     job's consumption of a shared stream;
//   - reductions over job results happen serially in index order.
//
// Experiment drivers therefore split into a cheap serial phase (drawing
// workloads from a master RNG) and an expensive parallel phase (the
// measurement sweeps), and the report they produce is a pure function
// of the seed alone.
//
// The per-job RNGs, and every per-item stream the scenario layer
// derives, come from Source, which emits exactly math/rand's stream for
// a seed (rand.NewSource) but seeds in O(1). That equality is a
// contract, not an implementation detail: every committed golden report
// was produced by math/rand's stream, and TestSourceMatchesMathRand and
// FuzzSource hold Source to it bit for bit.
package sweep

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"rendezvous/internal/schedule"
	"rendezvous/internal/simulator"
)

// Runner bounds and seeds a parallel sweep. The zero value runs with
// GOMAXPROCS workers and seed 0.
type Runner struct {
	Workers int   // worker goroutines; ≤0 means runtime.GOMAXPROCS(0)
	Seed    int64 // base seed for per-job RNG derivation in MapRNG
}

// workerCount clamps the pool size to the job count so tiny sweeps do
// not pay goroutine overhead.
func (r Runner) workerCount(jobs int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// DeriveSeed mixes a base seed with a job index through the SplitMix64
// finalizer, yielding statistically independent per-job streams. Jobs
// seeded this way never contend for (or perturb) a shared RNG, which is
// what makes sweeps reproducible across worker counts.
func DeriveSeed(seed int64, job int) int64 {
	z := uint64(seed) + (uint64(job)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Map evaluates fn(0) … fn(n−1) on the runner's worker pool and returns
// the results in index order. fn must not depend on evaluation order.
func Map[T any](r Runner, n int, fn func(job int) T) []T {
	return mapWorkers(r, n, func() func(int) T { return fn })
}

// mapWorkers is Map with per-worker state: newWorker runs once on each
// worker goroutine and returns the job function that worker applies,
// so workers can own scratch (MapRNG's reseeded Source) without
// locking.
func mapWorkers[T any](r Runner, n int, newWorker func() func(job int) T) []T {
	out := make([]T, n)
	w := r.workerCount(n)
	if w == 1 {
		fn := newWorker()
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := newWorker()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// MapRNG is Map for randomized jobs: each job receives an RNG seeded
// from (r.Seed, job) only, emitting exactly the stream of
// rand.New(rand.NewSource(DeriveSeed(r.Seed, job))). Two calls with
// equal seeds and job counts produce identical results at any worker
// count. Each worker reseeds one Source per job, so the RNG is valid
// only for the duration of fn's call: fn must not retain it.
func MapRNG[T any](r Runner, n int, fn func(job int, rng *rand.Rand) T) []T {
	return mapWorkers(r, n, func() func(int) T {
		rng := rand.New(NewSource(0))
		return func(i int) T {
			rng.Seed(DeriveSeed(r.Seed, i))
			return fn(i, rng)
		}
	})
}

// sweepChunk is the offset-count granularity at which SweepOffsets
// splits work. Fixed (not worker-derived) so the partition is stable,
// though MergeTTR makes the result partition-independent anyway.
const sweepChunk = 64

// SweepOffsets is the parallel counterpart of simulator.SweepOffsets:
// it partitions the offsets into contiguous chunks, sweeps the chunks
// on the worker pool, and merges the per-chunk statistics in index
// order. The result equals the serial sweep exactly, including the
// WorstOff tie-break (the last offset attaining the maximum wins).
func SweepOffsets(r Runner, a, b schedule.Schedule, offsets []int, horizon int) simulator.TTRStats {
	// Each chunk runs simulator.SweepOffsets, whose adaptive (ski-
	// rental) compilation decides per chunk whether unrolling the pair's
	// hop tables pays off; a worker therefore never inherits another
	// chunk's compile cost, and results stay byte-identical at any
	// worker count because compiled tables are verified equivalents.
	if len(offsets) <= sweepChunk || r.workerCount(len(offsets)) == 1 {
		return simulator.SweepOffsets(a, b, offsets, horizon)
	}
	chunks := (len(offsets) + sweepChunk - 1) / sweepChunk
	parts := Map(r, chunks, func(c int) simulator.TTRStats {
		lo := c * sweepChunk
		hi := lo + sweepChunk
		if hi > len(offsets) {
			hi = len(offsets)
		}
		return simulator.SweepOffsets(a, b, offsets[lo:hi], horizon)
	})
	var st simulator.TTRStats
	for _, p := range parts {
		st = MergeTTR(st, p)
	}
	return st
}

// MergeTTR folds chunk statistics into an accumulator, replicating the
// serial sweep's semantics: Max/WorstOff only move on a successful
// sample whose TTR is ≥ the running maximum, so later chunks win ties
// exactly as later offsets do serially.
func MergeTTR(acc, chunk simulator.TTRStats) simulator.TTRStats {
	acc.Samples += chunk.Samples
	acc.Failures += chunk.Failures
	acc.Sum += chunk.Sum
	if chunk.Samples-chunk.Failures > 0 && chunk.Max >= acc.Max {
		acc.Max = chunk.Max
		acc.WorstOff = chunk.WorstOff
	}
	return acc
}
