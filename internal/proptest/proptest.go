// Package proptest is the deterministic property-based verification
// subsystem behind the repository's correctness claims. The paper's
// value is a *guaranteed* rendezvous bound, so the reproduction
// machine-checks that guarantee — and the equivalence of every fast
// path to its reference implementation — over randomized instances
// instead of a handful of hand-picked tables.
//
// Everything is seed-driven: each property iteration derives a private
// RNG from (base seed, iteration) through the SplitMix64 finalizer
// (sweep.DeriveSeed), so any failure replays from a single integer. On
// failure the harness shrinks the instance to a minimal counterexample
// (fewer channels, smaller offset, fewer agents, no dynamics) and
// prints a one-line repro command.
//
// The package hosts four kinds of oracle:
//
//   - metamorphic: channel relabeling, common time-shift, and
//     agent-permutation invariance must leave meeting structure
//     unchanged; ChannelBlock ≡ Channel; Compile(s) ≡ s;
//   - engine equivalence: the pairwise scan, at every worker count, on
//     topology-free engines' triangular pair state and on contact
//     engines' contact-edge pair state, must agree with an independent
//     brute-force oracle engine under random scenarios with churn,
//     primary users, and jammers;
//   - paper bounds: every generated symmetric/asymmetric pair must
//     rendezvous within its theoretical TTR upper bound;
//   - scenario determinism: fleet derivation and environment decisions
//     are pure functions of the seed at any worker count, and
//     Fleet.Summarize's pair-state coverage equals the per-pair
//     Summarize and SummarizeContact definitions.
//
// Native fuzz targets (FuzzCompile, FuzzBlockEquivalence,
// FuzzEngineVsReference, FuzzScenarioEnv) drive the same properties from
// go's coverage-guided fuzzer with committed seed corpora, and
// `rvverify -stress` drives them from the command line.
package proptest

import (
	"math/rand"
	"os"
	"strconv"

	"rendezvous/internal/sweep"
)

// ReplayEnv names the environment variable that replays a single
// failing iteration: set it to the seed printed in a failure message
// and re-run the same test.
const ReplayEnv = "PROPTEST_SEED"

// ItersEnv scales every ForAll loop (e.g. a nightly job may crank it);
// unset means each call site's default.
const ItersEnv = "PROPTEST_ITERS"

// T is the subset of *testing.T the harness needs. An interface (like
// schedtest.T) so the shrinker self-tests can observe failures without
// aborting the real test run.
type T interface {
	Helper()
	Name() string
	Logf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// Case is a generated property instance: it must describe itself well
// enough that a failure message alone reconstructs the scenario.
type Case interface {
	// String renders the instance parameters on one line.
	String() string
}

// Iters returns the iteration count for a property: def, unless
// ItersEnv overrides it.
func Iters(def int) int {
	if v := os.Getenv(ItersEnv); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// SeedRNG returns the private RNG of one property iteration: a
// math/rand stream seeded from (base, iteration) via the SplitMix64
// finalizer, so iterations never share state and any one of them
// reruns in isolation.
func SeedRNG(base int64, iter int) *rand.Rand {
	return rand.New(rand.NewSource(sweep.DeriveSeed(base, iter)))
}

// DefaultSeed is the base seed every TestProp uses; the fuzz targets
// and rvverify -stress explore beyond it.
const DefaultSeed = 1

// ForAll runs check over iters cases generated from per-iteration
// RNGs. On the first failure it shrinks the case with shrink (passing
// the "still fails?" predicate), logs the original and minimal
// counterexamples, and fails the test with a one-line replay command.
//
// If ReplayEnv is set, only that iteration runs — the exact replay of
// a previously printed failure.
func ForAll[C Case](t T, iters int, gen func(rng *rand.Rand) C, check func(C) error, shrink func(C, func(C) bool) C) {
	t.Helper()
	base := int64(DefaultSeed)
	from, to := 0, Iters(iters)
	if v := os.Getenv(ReplayEnv); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("proptest: bad %s=%q: %v", ReplayEnv, v, err)
		}
		from, to = n, n+1
	}
	for i := from; i < to; i++ {
		c := gen(SeedRNG(base, i))
		err := check(c)
		if err == nil {
			continue
		}
		min := c
		if shrink != nil {
			min = shrink(c, func(c2 C) bool { return check(c2) != nil })
		}
		minErr := check(min)
		if minErr == nil { // defensive: a shrinker must never "fix" the case
			min, minErr = c, err
		}
		t.Logf("proptest: iteration %d failed: %v\n  original: %s", i, err, c)
		t.Fatalf("minimal counterexample: %s\n  failure: %v\n  replay: %s=%d go test -run '%s' ./internal/proptest",
			min, minErr, ReplayEnv, i, t.Name())
	}
}
