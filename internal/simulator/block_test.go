package simulator

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rendezvous/internal/baselines"
	"rendezvous/internal/schedule"
)

// mixedSchedule builds one of the repository's schedule families from a
// test RNG, so the equivalence tests cover native block evaluators,
// compiled tables, and wrappers alike.
func mixedSchedule(t *testing.T, rng *rand.Rand, n int, set []int) schedule.Schedule {
	t.Helper()
	var (
		s   schedule.Schedule
		err error
	)
	switch rng.Intn(5) {
	case 0:
		s, err = schedule.NewGeneral(n, set)
	case 1:
		s, err = schedule.NewAsync(n, set)
	case 2:
		s, err = baselines.NewCRSEQ(n, set)
	case 3:
		s, err = baselines.NewJumpStay(n, set)
	default:
		s, err = baselines.NewRandom(n, set, rng.Uint64(), 1<<14)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPairTTRBlockEquivalence sweeps randomized schedule pairs and wake
// offsets and requires the block-evaluated PairTTR to agree exactly
// with a per-slot scan over each schedule's own Channel.
func TestPairTTRBlockEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 32
	for trial := 0; trial < 40; trial++ {
		w := RandomOverlappingPair(rng, n, 1+rng.Intn(4), 1+rng.Intn(4))
		a := mixedSchedule(t, rng, n, w.A)
		b := mixedSchedule(t, rng, n, w.B)
		wakeA, wakeB := rng.Intn(1000), rng.Intn(1000)
		horizon := 1 + rng.Intn(100_000)

		wantTTR, wantOK := perSlotTTR(a, b, wakeA, wakeB, horizon)
		gotTTR, gotOK := PairTTR(a, b, wakeA, wakeB, horizon)
		if gotTTR != wantTTR || gotOK != wantOK {
			t.Fatalf("trial %d: block PairTTR = (%d,%v), per-slot = (%d,%v)",
				trial, gotTTR, gotOK, wantTTR, wantOK)
		}
	}
}

// perSlotTTR is PairTTR transcribed slot by slot: one Channel call per
// schedule per slot, no blocks, no pooled buffers.
func perSlotTTR(a, b schedule.Schedule, wakeA, wakeB, horizon int) (ttr int, ok bool) {
	start := max(wakeA, wakeB)
	for s := 0; s < horizon; s++ {
		if a.Channel(start+s-wakeA) == b.Channel(start+s-wakeB) {
			return s, true
		}
	}
	return 0, false
}

// renderMeetings prints r's meetings in order, one builder for the
// whole result: the route tests render fleets with 30k+ meetings.
func renderMeetings(r *Result) string {
	var sb strings.Builder
	for _, m := range r.Meetings() {
		fmt.Fprintf(&sb, "%s-%s@%d ch%d ttr%d; ", m.A, m.B, m.Slot, m.Channel, m.TTR)
	}
	return sb.String()
}
