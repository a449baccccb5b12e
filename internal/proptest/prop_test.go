package proptest

import (
	"math/rand"
	"testing"

	"rendezvous/internal/scenario"
)

// All TestProp tests are deterministic: iteration i derives its RNG
// from (DefaultSeed, i) alone, so a CI failure replays locally with
// the printed PROPTEST_SEED command. PROPTEST_ITERS cranks the counts
// for a deep soak.

// TestPropPairBound is the paper-bound oracle for the flagship and the
// bare Theorem-3 construction: every generated overlapping pair —
// identical sets included — must rendezvous within its analytic TTR
// bound at every generated wake offset.
func TestPropPairBound(t *testing.T) {
	ForAll(t, Iters(120),
		func(rng *rand.Rand) PairCase { return GenPairCase(rng, BoundedAlgs) },
		CheckPairBound, ShrinkPair)
}

// TestPropPairSymmetricO1 pins the §3.2 claim specifically: identical
// sets meet within two 12-slot blocks, whatever the offset and set.
func TestPropPairSymmetricO1(t *testing.T) {
	ForAll(t, Iters(80),
		func(rng *rand.Rand) PairCase {
			c := GenPairCase(rng, []string{"ours"})
			c.B = append([]int(nil), c.A...)
			return c
		},
		CheckPairBound, ShrinkPair)
}

// TestPropPairTimeShift: a common wake shift never changes a pair's
// TTR, for every schedule family in the repository.
func TestPropPairTimeShift(t *testing.T) {
	ForAll(t, Iters(60),
		func(rng *rand.Rand) PairCase { return GenPairCase(rng, MetaAlgs) },
		CheckPairTimeShift, ShrinkPair)
}

// TestPropBlockEquivalence: ChannelBlock ≡ Channel for every family,
// over windows straddling period and implementation boundaries.
func TestPropBlockEquivalence(t *testing.T) {
	ForAll(t, Iters(150),
		func(rng *rand.Rand) SchedCase { return GenSchedCase(rng, MetaAlgs) },
		CheckBlockEquiv, ShrinkSched)
}

// TestPropCompileEquivalence: Compile(s) ≡ s for every family, with
// the eventual-period refusal and period preservation.
func TestPropCompileEquivalence(t *testing.T) {
	ForAll(t, Iters(150),
		func(rng *rand.Rand) SchedCase { return GenSchedCase(rng, MetaAlgs) },
		CheckCompileEquiv, ShrinkSched)
}

// TestPropEngineVsOracle: block, per-slot, and pairwise-parallel
// engine paths reproduce the brute-force oracle under random scenarios
// with churn, primary users, and jammers.
func TestPropEngineVsOracle(t *testing.T) {
	ForAll(t, Iters(40), GenFleetCase, CheckFleetEngines, ShrinkFleet)
}

// TestPropContactEngines: same oracle check with a contact grid on
// every draw, so the contact-engine clause (the pairwise scan on
// contact-edge CSR state against the in-range-filtered reference) runs
// each iteration rather than on the generator's one-in-three grid draw.
func TestPropContactEngines(t *testing.T) {
	ForAll(t, Iters(30), GenContactFleetCase, CheckFleetEngines, ShrinkFleet)
}

// TestPropAgentPermutation: engine results are invariant under the
// order agents are supplied.
func TestPropAgentPermutation(t *testing.T) {
	ForAll(t, Iters(30), GenFleetCase, CheckFleetPermutation, ShrinkFleet)
}

// TestPropChannelRelabel: meeting structure is invariant under a
// common injective channel relabeling.
func TestPropChannelRelabel(t *testing.T) {
	ForAll(t, Iters(30), GenFleetCase, CheckFleetRelabel, ShrinkFleet)
}

// TestPropFleetTimeShift: waking the whole fleet later shifts meeting
// slots and nothing else.
func TestPropFleetTimeShift(t *testing.T) {
	ForAll(t, Iters(30), GenFleetCase, CheckFleetTimeShift, ShrinkFleet)
}

// TestPropSweepPartition: SweepOffsets folded over any contiguous
// chunking of its offsets via MergeTTR equals the serial sweep exactly
// (including the Max/WorstOff tie-break), and the parallel sweep agrees
// at any worker count.
func TestPropSweepPartition(t *testing.T) {
	ForAll(t, Iters(60), GenSweepCase, CheckSweepPartition, ShrinkSweep)
}

// TestPropFleetSummarize: Fleet.Summarize's pair-state fold equals the
// per-pair Summarize and SummarizeContact references. Half the draws
// carry a contact grid and half are forced dense, so both fleet kinds
// (and, for contact fleets, both pair-state layouts) run every soak.
func TestPropFleetSummarize(t *testing.T) {
	ForAll(t, Iters(40),
		func(rng *rand.Rand) FleetCase {
			if rng.Intn(2) == 0 {
				return GenContactFleetCase(rng)
			}
			c := GenFleetCase(rng)
			c.Sc.Grid = scenario.Grid{}
			return c
		},
		CheckFleetSummarize, ShrinkFleet)
}

// TestPropScenarioDeterminism: fleet derivation and environment
// decisions are pure functions of the seed, and worker count never
// changes a result.
func TestPropScenarioDeterminism(t *testing.T) {
	ForAll(t, Iters(40), GenFleetCase, CheckScenarioDeterminism, ShrinkFleet)
}
