// Command rvbench regenerates the paper's evaluation artifacts (Table 1,
// Figures 1–3, and the per-theorem experiments indexed in DESIGN.md) on
// the discrete-slot simulator and prints them as text tables.
//
// Usage:
//
//	rvbench              # run everything at full scale
//	rvbench -quick       # CI-sized sweeps
//	rvbench -parallel 4  # bound the sweep engine's worker pool
//	rvbench -exp t1-asym # one experiment: t1-asym t1-sym figures thm1
//	                     # thm3 sym beacon lb-ramsey lb-async oneround
//	                     # multi network network-sparse
//
// Experiments run on the internal/sweep engine: reports are
// byte-identical for a fixed -seed at any -parallel value (0 means one
// worker per CPU).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rendezvous/internal/experiments"
	"rendezvous/internal/tablecache"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rvbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rvbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (all, t1-asym, t1-sym, figures, thm1, thm3, sym, beacon, lb-ramsey, lb-async, oneround, multi, network, network-sparse)")
	quick := fs.Bool("quick", false, "shrink sweeps to CI size")
	seed := fs.Int64("seed", 1, "workload seed")
	parallel := fs.Int("parallel", 0, "sweep workers (0 = one per CPU); results are identical at any value")
	cachestats := fs.Bool("cachestats", false, "print shared table-cache counters after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cachestats {
		defer printCacheStats(out)
	}
	cfg := experiments.Config{Quick: *quick, Seed: *seed, Workers: *parallel}
	table := map[string]func(experiments.Config) *experiments.Report{
		"t1-asym":        experiments.Table1Asymmetric,
		"t1-sym":         experiments.Table1Symmetric,
		"figures":        experiments.Figures,
		"thm1":           experiments.Theorem1,
		"thm3":           experiments.Theorem3,
		"sym":            experiments.SymmetricWrapper,
		"beacon":         experiments.Beacon,
		"lb-ramsey":      experiments.LowerBoundRamsey,
		"lb-async":       experiments.LowerBoundAsync,
		"oneround":       experiments.OneRound,
		"multi":          experiments.MultiAgent,
		"network":        experiments.Network,
		"network-sparse": experiments.NetworkSparse,
	}
	if *exp == "all" {
		for _, rep := range experiments.All(cfg) {
			fmt.Fprintln(out, rep)
		}
		return nil
	}
	f, ok := table[strings.ToLower(*exp)]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	fmt.Fprintln(out, f(cfg))
	return nil
}

// printCacheStats reports the shared compiled-table cache after a run —
// the observability half of the table cache: how much schedule build
// work the run reused vs. recomputed.
func printCacheStats(out io.Writer) {
	st := tablecache.Shared().Stats()
	fmt.Fprintf(out, "table cache   hits=%d misses=%d evictions=%d entries=%d bytes=%d\n",
		st.Hits, st.Misses, st.Evictions, st.Entries, st.Bytes)
}
