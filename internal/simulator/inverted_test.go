package simulator

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestInvertedWordBoundaryFleets pins the posting-word bookkeeping at
// fleet sizes straddling the 64-agent word boundaries: the last word
// partially filled, exactly full, and one agent spilling into a fresh
// word. Each size runs the posting scan across worker counts and
// window widths against the pairwise decomposition.
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
			want := renderMeetings(pairwiseRun(eng, horizon, env))
			for _, workers := range []int{1, 3} {
				for _, window := range []int{blockLen, 4 * blockLen} {
					res := eng.newResult(horizon)
					eng.runJointSharded(res, horizon, workers, window, env, eng.meetablePairs(horizon), nil)
					if got := renderMeetings(res); got != want {
						t.Fatalf("agents=%d env=%v workers=%d window=%d diverged:\n got %s\nwant %s",
							agents, env, workers, window, got, want)
					}
				}
			}
		}
	}
}

// TestInvertedScratchReuse runs the inverted path on one engine across
// repeated runs and horizons against the pairwise decomposition: pooled
// posting indexes, block buffers and met bitsets must not leak state
// between runs.
func TestInvertedScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	fleet := jointTestFleet(t, rng, 20)
	eng, err := NewEngine(fleet)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 4; run++ {
		for _, h := range []int{1, blockLen - 1, blockLen + 1, 2500} {
			for _, env := range []Environment{nil, channelBlocked(3)} {
				want := renderMeetings(pairwiseRun(eng, h, env))
				if got := renderMeetings(eng.RunJointParallelEnv(h, 3, env)); got != want {
					t.Fatalf("run %d horizon %d env=%v: got %s want %s", run, h, env, got, want)
				}
			}
		}
	}
}

// TestScanKindGates pins the joint entry points' gate itself: every
// dense fleet takes the posting scan however small, and only empty
// horizons, horizons whose slot keys overflow the int32 hit encoding,
// contact fleets (contact-edge CSR pair state, at any size) and dense
// fleets whose met template passes metTemplateBudget run pairwise.
func TestScanKindGates(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, agents := range []int{2, 8, 191} {
		eng, err := NewEngine(jointTestFleet(t, rng, agents))
		if err != nil {
			t.Fatal(err)
		}
		if !eng.usesPostingScan(1000) {
			t.Fatalf("%d-agent dense fleet must take the posting scan", agents)
		}
		if eng.usesPostingScan(math.MaxInt32) {
			t.Fatal("int32-overflowing horizon must run pairwise")
		}
		if eng.usesPostingScan(0) {
			t.Fatal("empty horizon must run pairwise")
		}
	}
	contact, err := NewEngineContact(jointTestFleet(t, rng, 12), randomTopology(rng, 12, 3, 3, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if contact.usesPostingScan(1000) {
		t.Fatal("a 12-agent contact engine must run pairwise")
	}
	// Past the budget the met template alone would exceed
	// metTemplateBudget per worker.
	n := 1
	for metTemplateBytes(n) <= metTemplateBudget {
		n *= 2
	}
	s := mustCyclic(t, []int{1})
	huge := make([]Agent, n)
	for i := range huge {
		huge[i] = Agent{Name: fmt.Sprintf("h%06d", i), Sched: s}
	}
	eng, err := NewEngine(huge)
	if err != nil {
		t.Fatal(err)
	}
	if eng.usesPostingScan(1000) {
		t.Fatalf("%d-agent dense fleet past the met-template budget must run pairwise", n)
	}
}

// TestHopSetOrderInvisible builds one above-floor dense fleet in input
// order and in reverse. NewEngine numbers agents by hop set, stable in
// input order, so agents with equal hop sets take different ids in the
// two engines, and the posting scan walks its groups and met rows in
// different orders. Under an Environment, at one worker and at two,
// both must route to the posting scan and agree on Meetings and Tally.
func TestHopSetOrderInvisible(t *testing.T) {
	const horizon = 2048
	fleet := sharedChannelFleet(t, rand.New(rand.NewSource(137)), 257)
	reversed := slices.Clone(fleet)
	slices.Reverse(reversed)
	var engs [2]*Engine
	for k, agents := range [][]Agent{fleet, reversed} {
		eng, err := NewEngine(agents)
		if err != nil {
			t.Fatal(err)
		}
		engs[k] = eng
	}
	if slices.Equal(engs[0].names, engs[1].names) {
		t.Fatal("fixture: both input orders gave the same engine ids")
	}
	for _, workers := range []int{1, 2} {
		var (
			want      []Meeting
			wantTally PairTally
		)
		for k, eng := range engs {
			res := eng.RunParallelEnv(horizon, workers, evenSlotsBlocked{})
			if r := eng.LastRoute(); r != RouteInverted {
				t.Fatalf("workers=%d order %d: routed %v, want inverted", workers, k, r)
			}
			got, tally := res.Meetings(), eng.Tally(res)
			if k == 0 {
				if len(got) == 0 {
					t.Fatal("fixture: no meeting")
				}
				want, wantTally = got, tally
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("workers=%d: reversed input order changed the meetings", workers)
			}
			if tally != wantTally {
				t.Fatalf("workers=%d: reversed input order changed the tally: %+v, want %+v", workers, tally, wantTally)
			}
		}
	}
}
