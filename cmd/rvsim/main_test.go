package main

import (
	"strings"
	"testing"
)

func TestParseAgent(t *testing.T) {
	cases := []struct {
		in       string
		name     string
		channels []int
		wake     int
		wantErr  bool
	}{
		{in: "base=10,20,30", name: "base", channels: []int{10, 20, 30}},
		{in: "drone=20,40@25", name: "drone", channels: []int{20, 40}, wake: 25},
		{in: "x=5", name: "x", channels: []int{5}},
		{in: "noequals", wantErr: true},
		{in: "=1,2", wantErr: true},
		{in: "a=1,zz", wantErr: true},
		{in: "a=1@-3", wantErr: true},
		{in: "a=1@x", wantErr: true},
	}
	for _, c := range cases {
		got, err := parseAgent(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseAgent(%q): expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseAgent(%q): %v", c.in, err)
			continue
		}
		if got.name != c.name || got.wake != c.wake || len(got.channels) != len(c.channels) {
			t.Errorf("parseAgent(%q) = %+v", c.in, got)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-n", "64", "-horizon", "500000",
		"-agent", "base=10,20,30",
		"-agent", "drone=20,40@25",
		"-agent", "sensor=30,40@90",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "3 of 3 pairs met") {
		t.Fatalf("expected all pairs to meet:\n%s", out)
	}
	if !strings.Contains(out, "base") || !strings.Contains(out, "drone") {
		t.Fatalf("missing agents in output:\n%s", out)
	}
}

func TestRunDisjointSetsReported(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-n", "16", "-horizon", "10000",
		"-agent", "a=1,2",
		"-agent", "b=9,10",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "never met") {
		t.Fatalf("expected never-met notice:\n%s", sb.String())
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, alg := range []string{"ours", "general", "crseq", "crseq-rand", "jumpstay", "random", "sweep", "beacon-fresh", "beacon-walk"} {
		var sb strings.Builder
		err := run([]string{
			"-n", "32", "-alg", alg, "-horizon", "400000",
			"-agent", "a=3,9",
			"-agent", "b=9,20@7",
		}, &sb)
		if err != nil {
			t.Fatalf("alg %s: %v", alg, err)
		}
		if !strings.Contains(sb.String(), "pairs met") {
			t.Fatalf("alg %s: malformed output", alg)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-agent", "a=1,2"}, &sb); err == nil {
		t.Error("single agent: expected error")
	}
	if err := run([]string{"-alg", "nope", "-agent", "a=1", "-agent", "b=1"}, &sb); err == nil {
		t.Error("unknown algorithm: expected error")
	}
	if err := run([]string{"-n", "4", "-agent", "a=9", "-agent", "b=1"}, &sb); err == nil {
		t.Error("out-of-range channel: expected error")
	}
}

// TestRunFlagValidation: numeric flags are checked before either mode
// runs, so nonsense dies with a usage error instead of deep in the
// engine — and the message names the offending flag.
func TestRunFlagValidation(t *testing.T) {
	cases := map[string]struct {
		args []string
		want string
	}{
		"zero-horizon":      {[]string{"-horizon", "0", "-agent", "a=1", "-agent", "b=1"}, "-horizon"},
		"negative-horizon":  {[]string{"-horizon", "-5", "-scenario", "calm"}, "-horizon"},
		"zero-universe":     {[]string{"-n", "0", "-agent", "a=1", "-agent", "b=1"}, "-n"},
		"negative-universe": {[]string{"-n", "-2", "-scenario", "calm"}, "-n"},
		"negative-parallel": {[]string{"-parallel", "-1", "-agent", "a=1", "-agent", "b=1"}, "-parallel"},
	}
	for name, tc := range cases {
		var sb strings.Builder
		err := run(tc.args, &sb)
		if err == nil {
			t.Errorf("%s: expected error", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", name, err, tc.want)
		}
	}
}

func TestRunScenarioMode(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-scenario", "churn-pu", "-agents", "24", "-n", "64", "-horizon", "16384", "-seed", "5",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"churn-pu", "eligible pairs", "pairs met", "mean TTR"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scenario output missing %q:\n%s", want, out)
		}
	}
}

// TestRunScenarioDeterministicAcrossParallel: the scenario summary is a
// pure function of the seed, whatever -parallel says.
func TestRunScenarioDeterministicAcrossParallel(t *testing.T) {
	args := func(parallel string) []string {
		return []string{
			"-scenario", "churn", "-agents", "16", "-n", "32",
			"-horizon", "8192", "-seed", "9", "-parallel", parallel,
		}
	}
	var serial strings.Builder
	if err := run(args("1"), &serial); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"0", "4"} {
		var sb strings.Builder
		if err := run(args(p), &sb); err != nil {
			t.Fatalf("parallel=%s: %v", p, err)
		}
		if sb.String() != serial.String() {
			t.Fatalf("parallel=%s scenario output diverged:\n%s\nvs\n%s", p, sb.String(), serial.String())
		}
	}
}

func TestRunScenarioErrors(t *testing.T) {
	var sb strings.Builder
	cases := map[string][]string{
		"unknown-preset":     {"-scenario", "bogus"},
		"agents-too-small":   {"-scenario", "calm", "-agents", "1"},
		"churn-out-of-range": {"-scenario", "churn", "-churn", "1.5"},
		"churn-negative":     {"-scenario", "churn", "-churn", "-0.5"},
		"pu-negative":        {"-scenario", "pu", "-pu", "-3"},
		"pu-with-agents":     {"-pu", "3", "-agent", "a=1", "-agent", "b=1"},
		"churn-no-scenario":  {"-churn", "0.5"},
		"agent-and-scenario": {"-scenario", "calm", "-agent", "a=1,2"},
		"scenario-bad-alg":   {"-scenario", "calm", "-alg", "beacon-fresh"},
	}
	for name, args := range cases {
		if err := run(args, &sb); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestRunParallelFlagDeterministic: rvsim must print the same meetings
// at every -parallel value, one worker included.
func TestRunParallelFlagDeterministic(t *testing.T) {
	args := func(parallel string) []string {
		return []string{
			"-n", "64", "-horizon", "500000", "-parallel", parallel,
			"-agent", "base=10,20,30",
			"-agent", "drone=20,40@25",
			"-agent", "sensor=30,40@90",
		}
	}
	var serial strings.Builder
	if err := run(args("1"), &serial); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"0", "2", "8"} {
		var sb strings.Builder
		if err := run(args(p), &sb); err != nil {
			t.Fatalf("parallel=%s: %v", p, err)
		}
		if sb.String() != serial.String() {
			t.Fatalf("parallel=%s output diverged from parallel=1:\n%s\nvs\n%s", p, sb.String(), serial.String())
		}
	}
}
