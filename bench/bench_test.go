package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func okOutcome(idx int, ttrMs, lateMs float64) outcome {
	due := time.Duration(idx) * time.Millisecond
	return outcome{
		idx: idx, due: due,
		sent: due + time.Duration(lateMs*float64(time.Millisecond)),
		done: due + time.Duration(ttrMs*float64(time.Millisecond)),
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // unsorted input
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {0, 0}, {1, 100}} {
		if got := pct(xs, c.p); got != c.want {
			t.Errorf("pct(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("pct sorted its input in place")
	}
	outs := []outcome{okOutcome(0, 2, 0), {idx: 1, err: "refused"}}
	if got := ttrsMs(outs); got[0] != 2 || !math.IsInf(got[1], 1) {
		t.Errorf("ttrsMs = %v, want [2 +Inf]", got)
	}
}

func rung(jobs int, ttrMs, lateMs float64, failed int) []outcome {
	var outs []outcome
	for i := 0; i < jobs; i++ {
		outs = append(outs, okOutcome(i, ttrMs, lateMs))
	}
	for i := 0; i < failed; i++ {
		outs[i].err = "status 429"
	}
	return outs
}

func TestLadder(t *testing.T) {
	cases := []struct {
		name string
		outs []outcome
		pass bool
	}{
		{"fast", rung(200, 3, 0.5, 0), true},
		{"at limits", rung(200, limitTTRp99Ms, limitLateP99Ms, 0), true},
		{"slow", rung(200, limitTTRp99Ms+1, 0.5, 0), false},
		{"late generator", rung(200, 3, limitLateP99Ms+1, 0), false},
		{"one failure", rung(200, 3, 0.5, 1), false},
		{"empty", nil, false},
	}
	for _, c := range cases {
		if s := evalStep(1000, c.outs); s.pass != c.pass {
			t.Errorf("%s: pass = %v, want %v (step %+v)", c.name, s.pass, c.pass, s)
		}
	}
	// Two slow jobs in a hundred reach the p99 rank and fail the rung.
	outs := rung(100, 3, 0.5, 0)
	outs[98], outs[99] = okOutcome(98, 100, 0.5), okOutcome(99, 100, 0.5)
	if s := evalStep(1000, outs); s.pass || s.ttrP99 <= limitTTRp99Ms {
		t.Errorf("a p99 outlier passed: %+v", s)
	}

	steps := []step{{rate: 1000, pass: true}, {rate: 1250, pass: true}, {rate: 1600, pass: false}, {rate: 2000, pass: true}}
	if got := maxRate(steps); got != 1250 {
		t.Errorf("maxRate = %v, want 1250 (the rung before the first failure)", got)
	}
	if got := maxRate(steps[2:3]); got != 0 {
		t.Errorf("maxRate with a failing first rung = %v, want 0", got)
	}
}

// TestJobSpecsUnique covers every index a run may reach.
func TestJobSpecsUnique(t *testing.T) {
	for _, w := range workloads {
		seen := map[string]int{}
		for i := 0; i < maxJobIndex; i++ {
			b, err := json.Marshal(w.spec(7, i))
			if err != nil {
				t.Fatal(err)
			}
			if j, dup := seen[string(b)]; dup {
				t.Fatalf("%s: jobs %d and %d have the same spec %s", w.name, j, i, b)
			}
			seen[string(b)] = i
		}
	}
}

func TestLadderFitsUniqueRange(t *testing.T) {
	w, err := workloadByName("small-mix")
	if err != nil {
		t.Fatal(err)
	}
	// 60 s is the longest run BENCHMARK.json's run_seconds allows.
	if end := w.ladderEnd(60 * time.Second); end > maxJobIndex {
		t.Fatalf("a 60 s ladder reaches job %d, past the unique range %d", end, maxJobIndex)
	}
}

func TestJobSpecsDeterministic(t *testing.T) {
	for _, w := range workloads {
		for _, i := range []int{0, 1, 19, 20, 4097, maxJobIndex - 1} {
			a, _ := json.Marshal(w.spec(3, i))
			b, _ := json.Marshal(w.spec(3, i))
			c, _ := json.Marshal(w.spec(4, i))
			if !bytes.Equal(a, b) {
				t.Errorf("%s job %d: two bodies for one seed:\n%s\n%s", w.name, i, a, b)
			}
			if bytes.Equal(a, c) {
				t.Errorf("%s job %d: seeds 3 and 4 give the same body %s", w.name, i, a)
			}
		}
	}
}

func TestShapes(t *testing.T) {
	for _, w := range workloads {
		if err := w.checkShapes(1); err != nil {
			t.Error(err)
		}
	}
}

// TestSmokeInProcess runs small-mix for about a second against an
// in-process server and replays a sample of its jobs.
func TestSmokeInProcess(t *testing.T) {
	w, err := workloadByName("small-mix")
	if err != nil {
		t.Fatal(err)
	}
	w.replayEvery = 97
	o := options{seed: 1, dur: time.Second, procs: 2}
	p, err := runPhase(context.Background(), w, o, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstFailure(p.outs); err != nil {
		t.Fatal(err)
	}
	if p.pinned != 0 {
		t.Errorf("%d cache entries pinned after drain", p.pinned)
	}
	if len(p.steps) == 0 || len(p.base) == 0 {
		t.Fatalf("no ladder rung measured: %+v", p.steps)
	}
	m := metricSet{}
	phaseMetrics(m, w, p)
	if got := m["client.submit_created_frac"].Value; got != 1 {
		t.Errorf("submit_created_frac = %v, want 1", got)
	}
	st, err := replay(w, o.seed, p.outs)
	if err != nil {
		t.Fatal(err)
	}
	if st.jobs == 0 {
		t.Fatal("replay compared no jobs")
	}
	traceMetrics(m, p, m["ttr_p50_ms"].Value)
	if m["serve.manager.service_p50_ms"].N == 0 {
		t.Error("traced run recorded no serve.service spans")
	}
}

// TestBenchmarkJSON checks BENCHMARK.json records exactly this
// program's workloads and metrics.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %q: %q", i, got, w.name, w.why)
		}
	}
	var e2es, layers []metricDef
	for _, d := range metricDefs {
		if d.e2e {
			e2es = append(e2es, d)
		} else {
			layers = append(layers, d)
		}
	}
	check := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != d.e2e ||
				(g.Bound != nil && *g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, want %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2es)
	check("per_layer", doc.PerLayer, layers)
}
