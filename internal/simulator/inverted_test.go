package simulator

import (
	"math"
	"math/rand"
	"testing"
)

// TestInvertedWordBoundaryFleets pins the posting-word bookkeeping at
// fleet sizes straddling the 64-agent word boundaries: the last word
// partially filled, exactly full, and one agent spilling into a fresh
// word. Each size runs both posting kernels (the register-resident
// narrow scan and the heap-bitset wide scan) across worker counts and
// window widths against the serial block engine.
func TestInvertedWordBoundaryFleets(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, agents := range []int{63, 64, 65, 127, 130} {
		fleet := jointTestFleet(t, rng, agents)
		eng, err := NewEngine(fleet)
		if err != nil {
			t.Fatal(err)
		}
		const horizon = 1800
		for _, env := range []Environment{nil, evenSlotsBlocked{}} {
			want := renderMeetings(eng.RunEnv(horizon, env))
			for _, workers := range []int{1, 3} {
				for _, window := range []int{blockLen, 4 * blockLen} {
					for _, kind := range []scanKind{scanInverted, scanInvertedWide} {
						res := eng.newResult(horizon)
						eng.runJointSharded(res, horizon, workers, window, env, eng.meetablePairs(horizon), kind, nil)
						if got := renderMeetings(res); got != want {
							t.Fatalf("agents=%d env=%v workers=%d window=%d kind=%v diverged:\n got %s\nwant %s",
								agents, env, workers, window, kind, got, want)
						}
					}
				}
			}
		}
	}
}

// TestInvertedCrossoverBoundary drives the public joint entry point
// with the crossover floor placed below, at, above, and far above the
// fleet size: routing through either scan must be invisible in the
// Result.
func TestInvertedCrossoverBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	fleet := jointTestFleet(t, rng, 24)
	eng, err := NewEngine(fleet)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 2000
	for _, env := range []Environment{nil, evenSlotsBlocked{}} {
		want := renderMeetings(eng.RunEnv(horizon, env))
		for _, floor := range []int{0, len(fleet), len(fleet) + 1, 1 << 30} {
			prev := SetInvertedFloor(floor)
			got := renderMeetings(eng.RunJointParallelEnv(horizon, 4, env))
			SetInvertedFloor(prev)
			if got != want {
				t.Fatalf("env=%v floor=%d diverged:\n got %s\nwant %s", env, floor, got, want)
			}
		}
	}
}

// TestInvertedScratchReuse forces the inverted path on one engine
// across repeated runs and horizons: pooled posting indexes and met
// bitsets must not leak state between runs (the lazy-clear stamps
// restart from key 1 every run).
func TestInvertedScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	fleet := jointTestFleet(t, rng, 20)
	eng, err := NewEngine(fleet)
	if err != nil {
		t.Fatal(err)
	}
	prev := SetInvertedFloor(0)
	defer SetInvertedFloor(prev)
	for run := 0; run < 4; run++ {
		for _, h := range []int{1, blockLen - 1, blockLen + 1, 2500} {
			for _, env := range []Environment{nil, channelBlocked(3)} {
				want := renderMeetings(eng.RunEnv(h, env))
				if got := renderMeetings(eng.RunJointParallelEnv(h, 3, env)); got != want {
					t.Fatalf("run %d horizon %d env=%v: got %s want %s", run, h, env, got, want)
				}
			}
		}
	}
}

// TestScanKindGates pins the routing predicate itself: the floor
// comparison is inclusive, and horizons whose slot keys overflow the
// int32 stamps opt out.
func TestScanKindGates(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	eng, err := NewEngine(jointTestFleet(t, rng, 8))
	if err != nil {
		t.Fatal(err)
	}
	prev := SetInvertedFloor(8)
	defer SetInvertedFloor(prev)
	if k := eng.scanKindFor(1000); k != scanInverted {
		t.Fatalf("fleet at the floor must route inverted, got %v", k)
	}
	SetInvertedFloor(9)
	if k := eng.scanKindFor(1000); k != scanOccupancy {
		t.Fatalf("fleet below the floor must not route inverted, got %v", k)
	}
	SetInvertedFloor(0)
	if k := eng.scanKindFor(math.MaxInt32); k != scanOccupancy {
		t.Fatalf("int32-overflowing horizon must not route inverted, got %v", k)
	}
}
