package experiments

import (
	"testing"

	"rendezvous/internal/simulator"
)

// TestBlockEvalEquivalence is the end-to-end regression for the block
// evaluation layer's shared tables: every experiment driver must render
// a byte-identical report whether the simulator borrows compiled hop
// tables from the shared table cache (the default), where an entry
// another engine built serves every schedule with an equal cache key,
// or compiles each schedule privately with the cache off. A failure
// means a cache key admitted a table of a different schedule, or a
// shared table diverged from the schedule that produced it.
// (Channel ≡ ChannelBlock and Compile(s) ≡ s are pinned per schedule by
// the schedtest conformance suite and internal/proptest, and the engine
// against the per-slot oracle by internal/proptest.)
//
// The test swaps the process-wide cache, so it must not run in
// parallel with other tests (the parallel determinism tests are held
// until sequential tests finish, so ordering is safe).
func TestBlockEvalEquivalence(t *testing.T) {
	drivers := []struct {
		name string
		f    func(Config) *Report
	}{
		{"Table1Asymmetric", Table1Asymmetric},
		{"Table1Symmetric", Table1Symmetric},
		{"Theorem1", Theorem1},
		{"Theorem3", Theorem3},
		{"SymmetricWrapper", SymmetricWrapper},
		{"LowerBoundRamsey", LowerBoundRamsey},
		{"LowerBoundAsync", LowerBoundAsync},
		{"OneRound", OneRound},
		{"MultiAgent", MultiAgent},
		{"Network", Network},
		{"Beacon", Beacon},
	}
	cfg := Config{Quick: true, Seed: 7, Workers: 4}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			shared := d.f(cfg).String()
			prev := simulator.SetTableCache(nil)
			private := d.f(cfg).String()
			simulator.SetTableCache(prev)
			if private != shared {
				t.Errorf("reports with and without the shared table cache diverged:\n--- without ---\n%s\n--- with ---\n%s",
					private, shared)
			}
		})
	}
}
