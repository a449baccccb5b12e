package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"rendezvous/internal/scenario"
	"rendezvous/internal/schedule"
	"rendezvous/internal/serve"
	"rendezvous/internal/simulator"
)

// replayStats is the off-clock replay's per-layer ledger. Slices hold
// one sample per fleet opened or per job run, in ms unless named
// otherwise.
type replayStats struct {
	jobs        int
	build       []float64 // Scenario.Build
	open        []float64 // Scenario.Open
	engine      []float64 // Open minus Build
	graph       []float64 // Fleet.Graph
	summarize   []float64 // Fleet.Summarize
	encodeUs    []float64 // json.Marshal of serve.JobResult
	runFirst    []float64 // first run on a fleet's session
	runSteady   []float64 // later runs on the same session
	schedUs     float64   // total schedule-builder time in Build, µs
	agentsBuilt int
	agentSlots  float64 // Σ agents × horizon over replayed runs
	runSec      float64
	pairwise    int // runs routed pairwise
	joint       int // runs routed to a joint scan
	meetings    int // Σ Result.MetCount
}

// replayFleet is one open fleet and the session runs reuse on it.
type replayFleet struct {
	fl   *scenario.Fleet
	sess *simulator.Session
	runs int
}

// replay re-runs every w.replayEvery-th measured job serially in this
// process through the public scenario and simulator calls rvserve's
// worker makes, reusing a fleet exactly when rvserve's reuse rule would
// (same spec minus horizon). Each replayed result must be
// byte-identical to the daemon's.
func replay(w workload, seed uint64, outs []outcome) (replayStats, error) {
	defer freshTableCache()()
	var picked []outcome
	for _, o := range sortedByIndex(outs) {
		if o.ok() && (o.idx-w.warmup)%w.replayEvery == 0 {
			picked = append(picked, o)
		}
	}
	// Close each fleet after its last replayed job, so cold workloads
	// hold one fleet at a time.
	uses := map[string]int{}
	for _, o := range picked {
		uses[fleetKey(w.spec(seed, o.idx))]++
	}
	var st replayStats
	fleets := map[string]*replayFleet{}
	for _, o := range picked {
		spec := w.spec(seed, o.idx)
		key := fleetKey(spec)
		f := fleets[key]
		if f == nil {
			var err error
			if f, err = st.openFleet(w, spec); err != nil {
				return st, fmt.Errorf("replay job %d: %w", o.idx, err)
			}
			fleets[key] = f
		}
		got, err := st.runJob(f, spec)
		if err != nil {
			return st, fmt.Errorf("replay job %d: %w", o.idx, err)
		}
		if !bytes.Equal(got, o.result) {
			return st, fmt.Errorf("replay job %d (%s): result differs from rvserve's\n replay: %.200s\n daemon: %.200s",
				o.idx, o.id, got, o.result)
		}
		if uses[key]--; uses[key] == 0 {
			f.fl.Close()
			delete(fleets, key)
		}
	}
	return st, nil
}

// openFleet derives and opens spec's fleet, timing each layer and
// checking the workload's meetable-pair band on the derived agents.
func (st *replayStats) openFleet(w workload, spec serve.JobSpec) (*replayFleet, error) {
	sc := spec.Scenario
	build, err := scenario.BuilderFor(spec.Alg, sc.N, sc.Seed)
	if err != nil {
		return nil, err
	}
	var schedDur time.Duration
	timed := func(set []int, a int) (schedule.Schedule, error) {
		t := time.Now()
		s, err := build(set, a)
		schedDur += time.Since(t)
		return s, err
	}
	t := time.Now()
	agents, _, err := sc.Build(timed)
	buildDur := time.Since(t)
	if err != nil {
		return nil, err
	}
	if w.pairsLo > 0 || w.pairsHi > 0 {
		p := meetablePairs(agents, sc.Horizon)
		if p < w.pairsLo || (w.pairsHi > 0 && p > w.pairsHi) {
			return nil, fmt.Errorf("precondition: fleet seed %d has %d meetable pairs, want [%d, %d]",
				sc.Seed, p, w.pairsLo, w.pairsHi)
		}
	}
	t = time.Now()
	fl, err := sc.Open(build)
	openDur := time.Since(t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	fl.Graph()
	st.graph = append(st.graph, ms(time.Since(t)))
	st.build = append(st.build, ms(buildDur))
	st.open = append(st.open, ms(openDur))
	st.engine = append(st.engine, ms(openDur-buildDur))
	st.schedUs += float64(schedDur) / float64(time.Microsecond)
	st.agentsBuilt += len(agents)
	return &replayFleet{fl: fl, sess: fl.Eng.Session()}, nil
}

// runJob runs spec on f exactly as rvserve's worker does and returns
// the encoded serve.JobResult.
func (st *replayStats) runJob(f *replayFleet, spec serve.JobSpec) ([]byte, error) {
	sc := spec.Scenario
	t := time.Now()
	res := f.sess.RunParallelEnv(sc.Horizon, spec.EngineWorkers, f.fl.Env)
	run := time.Since(t)
	if f.runs == 0 {
		st.runFirst = append(st.runFirst, ms(run))
	} else {
		st.runSteady = append(st.runSteady, ms(run))
	}
	f.runs++
	st.jobs++
	st.runSec += run.Seconds()
	st.agentSlots += float64(sc.Agents) * float64(sc.Horizon)
	st.meetings += res.MetCount()
	switch f.fl.Eng.LastRoute() {
	case simulator.RoutePairwise:
		st.pairwise++
	case simulator.RouteNone:
	default:
		st.joint++
	}
	t = time.Now()
	cov := f.fl.Summarize(res, sc.Horizon)
	st.summarize = append(st.summarize, ms(time.Since(t)))
	out := serve.JobResult{Coverage: cov, MetFrac: cov.MetFrac()}
	if spec.IncludeMeetings {
		meets := res.Meetings()
		if len(meets) > serve.MaxMeetings {
			meets = meets[:serve.MaxMeetings]
			out.Truncated = true
		}
		out.Meetings = meets
	}
	t = time.Now()
	b, err := json.Marshal(out)
	st.encodeUs = append(st.encodeUs, float64(time.Since(t))/float64(time.Microsecond))
	return b, err
}

// meetablePairs counts agent pairs whose hop sets intersect and whose
// activity windows overlap below the horizon.
func meetablePairs(agents []simulator.Agent, horizon int) int {
	sets := make([][]int, len(agents))
	for i := range agents {
		sets[i] = schedule.AllChannels(agents[i].Sched)
	}
	n := 0
	for i := range agents {
		for j := i + 1; j < len(agents); j++ {
			if simulator.Coexist(agents[i], agents[j], horizon) && simulator.SetsIntersect(sets[i], sets[j]) {
				n++
			}
		}
	}
	return n
}

func sortedByIndex(outs []outcome) []outcome {
	s := append([]outcome(nil), outs...)
	sort.Slice(s, func(a, b int) bool { return s[a].idx < s[b].idx })
	return s
}
