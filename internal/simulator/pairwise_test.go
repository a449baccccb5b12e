package simulator

import (
	"fmt"
	"sync/atomic"
	"testing"

	"rendezvous/internal/schedule"
)

// fillCounter wraps a schedule and records what the engine asks of its
// ChannelBlock: the slots filled in total and the calls per global
// blockLen-slot window. Its Period is past any test horizon, so the
// engine never compiles it and every slot the scan reads is counted.
// It has no HopMask, so its hop mask is all ones (schedule.HopMask) and
// the pairwise scan fills its block in every window a live pair needs
// it, as for every schedule without a native mask.
type fillCounter struct {
	schedule.Schedule
	wake  int
	slots atomic.Int64
	calls []atomic.Int32 // per global window
}

func (f *fillCounter) Period() int { return 1 << 40 }

func (f *fillCounter) ChannelBlock(dst []int, start int) {
	f.slots.Add(int64(len(dst)))
	// The scan fills a block within one window, so its first slot names
	// the window.
	f.calls[(start+f.wake)/blockLen].Add(1)
	schedule.FillBlock(f.Schedule, dst, start)
}

// blockAll is an environment with every slot blocked: no pair ever
// meets, so every pair scans its whole overlap.
type blockAll struct{}

func (blockAll) Available(int, int) bool { return false }

// TestPairwiseFillsOncePerWindow pins the pairwise scan's sharing: a
// hub hopping channels 1..k, paired with k leaves that each hold one of
// those channels, where no pair may meet. At one worker every agent's
// block is filled at most once per window, over exactly its active
// slots (one leaf is active throughout, so the hub is needed in every
// window); with several workers an agent is filled at most once per
// window in each chunk that holds one of its pairs. A per-pair scan
// fills the hub once per leaf.
func TestPairwiseFillsOncePerWindow(t *testing.T) {
	const k, horizon = 40, 2000
	windows := (horizon + blockLen - 1) / blockLen
	hubSeq := make([]int, k)
	for i := range hubSeq {
		hubSeq[i] = i + 1
	}
	agents := []Agent{{Name: "hub", Sched: mustCyclic(t, hubSeq)}}
	for i := 1; i <= k; i++ {
		a := Agent{Name: fmt.Sprintf("leaf%02d", i), Sched: mustCyclic(t, []int{i})}
		if i > 1 {
			a.Wake = i * 37 % 700
			if i%3 == 0 {
				a.Leave = a.Wake + 1 + i*53%900
			}
		}
		agents = append(agents, a)
	}
	for _, workers := range []int{1, 3} {
		counters := make([]*fillCounter, len(agents))
		wrapped := make([]Agent, len(agents))
		for i, a := range agents {
			counters[i] = &fillCounter{Schedule: a.Sched, wake: a.Wake, calls: make([]atomic.Int32, windows)}
			wrapped[i] = a
			wrapped[i].Sched = counters[i]
		}
		eng, err := NewEngine(wrapped)
		if err != nil {
			t.Fatal(err)
		}
		if res := eng.RunParallelEnv(horizon, workers, blockAll{}); res.MetCount() != 0 || eng.LastRoute() != RoutePairwise {
			t.Fatalf("workers=%d: %d meetings on route %v, want none on the pairwise route",
				workers, res.MetCount(), eng.LastRoute())
		}
		// In hop-set order leaf01 ({1}) precedes the hub ({1, …, k}),
		// which precedes every other leaf, so the pairs are still
		// (hub, leaf i) for i = 1..k, in that order: leaf i's pair is
		// pair i−1 and falls in chunk (i−1)/chunk.
		chunk, _ := pairChunks(k, workers)
		chunksOf := make([]int32, len(agents))
		chunksOf[0] = int32((k + chunk - 1) / chunk)
		for i := 1; i <= k; i++ {
			chunksOf[i] = 1
		}
		for i, f := range counters {
			a := agents[i]
			if active := int64(a.end(horizon) - a.Wake); workers == 1 && f.slots.Load() != active {
				t.Errorf("workers=1: %s filled %d slots, want its %d active slots", a.Name, f.slots.Load(), active)
			}
			for w := range f.calls {
				if n := f.calls[w].Load(); n > chunksOf[i] {
					t.Errorf("workers=%d: %s filled %d times in window %d, want at most %d",
						workers, a.Name, n, w, chunksOf[i])
				}
			}
		}
	}
}
