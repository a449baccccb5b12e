package experiments

import (
	"testing"

	"rendezvous/internal/simulator"
)

// TestBlockEvalEquivalence is the end-to-end regression for the block
// evaluation layer's horizon-prefix tables: every experiment driver
// must render a byte-identical report whether the simulator replays
// prefix tables for schedules too long to compile (the default) or
// evaluates each of their blocks afresh through ChannelBlock. A failure
// means a prefix table diverged from the schedule that produced it.
// (Channel ≡ ChannelBlock is pinned per schedule by the schedtest
// conformance suite, and every engine path against the per-slot oracle
// by internal/proptest.)
//
// The test sets a process-wide budget, so it must not run in parallel
// with other tests (the parallel determinism tests are held until
// sequential tests finish, so ordering is safe).
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
			withPrefix := d.f(cfg).String()
			prev := simulator.SetPrefixBudget(0)
			noPrefix := d.f(cfg).String()
			simulator.SetPrefixBudget(prev)
			if noPrefix != withPrefix {
				t.Errorf("reports with and without prefix tables diverged:\n--- without ---\n%s\n--- with ---\n%s",
					noPrefix, withPrefix)
			}
		})
	}
}
