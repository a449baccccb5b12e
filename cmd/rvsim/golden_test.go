package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden corpus for rvsim's output: every scenario preset plus one
// explicit-agent run, at small fixed parameters and a pinned seed,
// committed under testdata/golden/ and enforced byte for byte (the
// scenario engine's determinism contract makes these stable across
// machines and worker counts). Regenerate intentional changes with
// `make golden` and review the diff.

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenRuns pins each corpus entry's command line.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"preset-calm", []string{"-scenario", "calm", "-agents", "16", "-n", "32", "-horizon", "8192", "-seed", "11"}},
	{"preset-churn", []string{"-scenario", "churn", "-agents", "16", "-n", "32", "-horizon", "8192", "-seed", "11"}},
	{"preset-pu", []string{"-scenario", "pu", "-agents", "16", "-n", "32", "-horizon", "8192", "-seed", "11"}},
	{"preset-churn-pu", []string{"-scenario", "churn-pu", "-agents", "16", "-n", "32", "-horizon", "8192", "-seed", "11"}},
	{"preset-jammer", []string{"-scenario", "jammer", "-agents", "16", "-n", "32", "-horizon", "8192", "-seed", "11"}},
	{"preset-sparse", []string{"-scenario", "sparse", "-agents", "64", "-n", "32", "-horizon", "8192", "-seed", "11"}},
	{"preset-sparse-2k", []string{"-scenario", "sparse", "-agents", "2048", "-n", "128", "-horizon", "8192", "-seed", "3"}},
	// A 256-agent dense fleet with 10,630 eligible pairs.
	{"preset-churn-pu-256", []string{"-scenario", "churn-pu", "-agents", "256", "-n", "128", "-horizon", "8192", "-seed", "3"}},
	{"preset-overrides", []string{"-scenario", "calm", "-agents", "12", "-n", "16", "-horizon", "4096", "-seed", "11", "-churn", "0.5", "-pu", "2"}},
	{"explicit-agents", []string{"-n", "64", "-horizon", "500000", "-agent", "base=10,20,30", "-agent", "drone=20,40@25", "-agent", "sensor=30,40@90"}},
}

func TestGoldenSimOutput(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			var sb strings.Builder
			if err := run(g.args, &sb); err != nil {
				t.Fatalf("rvsim %s: %v", strings.Join(g.args, " "), err)
			}
			path := filepath.Join("testdata", "golden", g.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden: %v\n(run `make golden` and commit the result)", err)
			}
			if sb.String() != string(want) {
				t.Errorf("output diverged from %s:\n--- got ---\n%s\n--- want ---\n%s\n(if intentional, run `make golden`)",
					path, sb.String(), want)
			}
		})
	}
}
