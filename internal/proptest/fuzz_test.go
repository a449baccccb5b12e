package proptest

import (
	"math/rand"
	"testing"

	"rendezvous/internal/sweep"
)

// Native fuzz targets over the property oracles: go's coverage-guided
// fuzzer mutates (seed, shape) tuples, the generators turn them into
// structured instances, and the same checkers that back the TestProp
// suite decide pass/fail. Each target has a committed seed corpus under
// testdata/fuzz/<Target>/ and runs as a time-boxed smoke job in CI
// (`make fuzz-smoke`); crashers the fuzzer discovers land in the same
// directory and are uploaded as CI artifacts.
//
// Shapes are folded through sweep.DeriveSeed so a mutated byte anywhere
// reshapes the whole instance — the fuzzer explores instance space, not
// just a 64-bit seed line.

// fuzzRNG derives the instance RNG from the fuzzer's raw inputs,
// chaining both halves of shape through the finalizer so every bit of
// both words changes the stream.
func fuzzRNG(seed, shape uint64) *rand.Rand {
	mixed := sweep.DeriveSeed(int64(seed), int(uint32(shape)))
	return rand.New(rand.NewSource(sweep.DeriveSeed(mixed, int(shape>>32))))
}

// FuzzCompile: Compile(s) ≡ s for fuzzer-chosen schedule instances,
// including the eventual-period refusal and period preservation.
func FuzzCompile(f *testing.F) {
	for i := uint64(0); i < 4; i++ {
		f.Add(i, i*37)
	}
	f.Fuzz(func(t *testing.T, seed, shape uint64) {
		c := GenSchedCase(fuzzRNG(seed, shape), MetaAlgs)
		if err := CheckCompileEquiv(c); err != nil {
			t.Fatalf("%s: %v\n  minimal: %s", c, err,
				ShrinkSched(c, func(c2 SchedCase) bool { return CheckCompileEquiv(c2) != nil }))
		}
	})
}

// FuzzBlockEquivalence: ChannelBlock ≡ Channel for fuzzer-chosen
// schedule instances over boundary-straddling probe windows.
func FuzzBlockEquivalence(f *testing.F) {
	for i := uint64(0); i < 4; i++ {
		f.Add(i, i*101)
	}
	f.Fuzz(func(t *testing.T, seed, shape uint64) {
		c := GenSchedCase(fuzzRNG(seed, shape), MetaAlgs)
		if err := CheckBlockEquiv(c); err != nil {
			t.Fatalf("%s: %v\n  minimal: %s", c, err,
				ShrinkSched(c, func(c2 SchedCase) bool { return CheckBlockEquiv(c2) != nil }))
		}
	})
}

// FuzzEngineVsReference: the production engine paths (Run, the
// parallel scan at several worker counts, session and cancelled
// re-runs, and the contact engine under both pair-state layouts)
// reproduce the brute-force oracle ReferenceRun meeting for meeting on
// fuzzer-chosen scenarios with churn, primary users, jammers, and
// contact grids — the checks CheckFleetEngines makes.
func FuzzEngineVsReference(f *testing.F) {
	for i := uint64(0); i < 3; i++ {
		f.Add(i, i*59)
	}
	f.Fuzz(func(t *testing.T, seed, shape uint64) {
		c := GenFleetCase(fuzzRNG(seed, shape))
		if err := CheckFleetEngines(c); err != nil {
			t.Fatalf("%s: %v\n  minimal: %s", c, err,
				ShrinkFleet(c, func(c2 FleetCase) bool { return CheckFleetEngines(c2) != nil }))
		}
	})
}

// FuzzScenarioEnv: scenario fleet derivation and environment decisions
// are pure functions of the seed (random-access, order-independent),
// and worker count never changes a result.
func FuzzScenarioEnv(f *testing.F) {
	for i := uint64(0); i < 3; i++ {
		f.Add(i, i*211)
	}
	f.Fuzz(func(t *testing.T, seed, shape uint64) {
		c := GenFleetCase(fuzzRNG(seed, shape))
		if err := CheckScenarioDeterminism(c); err != nil {
			t.Fatalf("%s: %v\n  minimal: %s", c, err,
				ShrinkFleet(c, func(c2 FleetCase) bool { return CheckScenarioDeterminism(c2) != nil }))
		}
	})
}
