package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"rendezvous/internal/scenario"
	"rendezvous/internal/serve"
	"rendezvous/internal/sweep"
)

// workload is one traffic mix driven through rvserve. Job i of a
// workload is a pure function of (seed, i), and every index a run can
// reach yields a distinct spec: rvserve answers a repeated spec from
// its idempotent job map, which would measure nothing.
type workload struct {
	name string
	why  string
	// ladder lists the open-loop rates in jobs/s, lowest first; nil
	// means a closed loop of closedClients clients.
	ladder []float64
	// warmup is the number of leading job indices run closed-loop
	// before measuring; they count toward setup_s only.
	warmup int
	// replayEvery is the stride of the off-clock replay over measured
	// jobs.
	replayEvery int
	// pairsLo and pairsHi bound the meetable-pair count of every
	// replayed fleet (0 = unbounded).
	pairsLo, pairsHi int
	// minShapes is the number of distinct fleet shapes the warm-up
	// jobs must span.
	minShapes int
	spec      func(seed uint64, i int) serve.JobSpec
}

const (
	closedClients = 2
	// sessionsPerWorker is rvserve's default session-pool size.
	sessionsPerWorker = 8
	// maxJobIndex bounds the job indices a run may reach: small-mix's
	// horizon cycle repeats past it.
	maxJobIndex = smallFleetSeeds * 5 * smallHorizons
	// smallHorizons is the length of small-mix's horizon cycle.
	smallHorizons = 6144
)

// Limits a small-mix ladder step must meet to pass.
const (
	limitTTRp99Ms  = 25.0
	limitLateP99Ms = 5.0
	baseRate       = 1000.0
)

// smallShapes is the per-fleet-seed shape list of small-mix: random
// 4-channel sets, or a coalition block every agent shares.
var smallShapes = [][]int{nil, {1, 2, 5, 7}, {1, 2, 5, 8}, {1, 2, 5, 9}, {1, 2, 5, 10}}

const smallFleetSeeds = 4

var workloads = []workload{
	{
		name:        "small-mix",
		why:         "open-loop rate ladder of 8-agent jobs over 20 fleet shapes: HTTP, JSON, polling and session-pool churn dominate",
		ladder:      []float64{baseRate, 1250, 1600, 2000, 2500, 3200},
		warmup:      smallFleetSeeds * 5,
		replayEvery: 64,
		minShapes:   sessionsPerWorker + 1,
		spec:        smallMixSpec,
	},
	{
		name:        "net1k-warm",
		why:         "closed-loop jobs on two reused 1024-agent fleets: warm sessions and table cache, the joint scan kernel dominates",
		warmup:      2 * closedClients,
		replayEvery: 8,
		pairsLo:     16385,
		spec:        net1kSpec,
	},
	{
		name:        "net256-cold",
		why:         "closed-loop fresh 256-agent fleets in the router's ski-rental band: every job derives, builds and compiles a fleet",
		warmup:      2 * closedClients,
		replayEvery: 8,
		pairsLo:     4096,
		pairsHi:     16384,
		spec:        net256Spec,
	},
	{
		name:        "sparse4k-cold",
		why:         "closed-loop fresh 4096-agent contact-grid fleets: derivation, contact-engine and contact-graph builds are ~40% of a job",
		warmup:      2 * closedClients,
		replayEvery: 8,
		spec:        sparse4kSpec,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// stream derives a sub-seed from the benchmark seed, a stream tag and
// an index.
func stream(seed uint64, tag, i int) int64 {
	return sweep.DeriveSeed(sweep.DeriveSeed(int64(seed), tag), i)
}

// freshSeed gives job i of a cold workload its own fleet seed.
func freshSeed(seed uint64, i int) uint64 { return seed<<32 | uint64(i) }

func jobSpec(sc scenario.Scenario, meetings bool) serve.JobSpec {
	return serve.JobSpec{Alg: "ours", Scenario: sc, EngineWorkers: 1, IncludeMeetings: meetings}
}

// smallMixSpec: each block of 20 consecutive jobs is a seeded
// permutation of the 20 shapes; the block number shifts the horizon,
// which keeps specs unique below maxJobIndex.
func smallMixSpec(seed uint64, i int) serve.JobSpec {
	const shapes = smallFleetSeeds * 5
	block := i / shapes
	perm := rand.New(rand.NewSource(stream(seed, 1, block))).Perm(shapes)
	shape := perm[i%shapes]
	sc := scenario.Scenario{
		N: 12, Agents: 8,
		Seed:    uint64(stream(seed, 2, shape/len(smallShapes))),
		Horizon: 1024 + block%smallHorizons,
	}
	if b := smallShapes[shape%len(smallShapes)]; b != nil {
		sc.Block = b
	} else {
		sc.K = 4
	}
	return jobSpec(sc, true)
}

// net1kSpec alternates two fleets and two horizons. A distinct one-hour
// deadline keeps each spec unique: rvserve's fleet key ignores it, and
// unlike a distinct horizon it leaves the horizon-keyed tables in the
// table cache reusable, so the jobs run warm.
func net1kSpec(seed uint64, i int) serve.JobSpec {
	s := jobSpec(scenario.Scenario{
		N: 128, Agents: 1024, K: 4,
		Seed:    uint64(stream(seed, 3, (i/2)%2)),
		Horizon: 4096 * (1 + i%2),
		Churn:   scenario.Churn{WakeSpread: 2000, LeaveFrac: 0.25, MinLife: 4096, MaxLife: 16384},
		PU:      scenario.PrimaryUsers{Count: 8, Window: 1024, OnFrac: 0.5},
	}, false)
	s.TimeoutMs = 3600_000 + i
	return s
}

func net256Spec(seed uint64, i int) serve.JobSpec {
	return jobSpec(scenario.Scenario{
		N: 128, Agents: 256, K: 4,
		Seed:    freshSeed(seed, i),
		Horizon: 8192,
		Churn:   scenario.Churn{WakeSpread: 2000},
		PU:      scenario.PrimaryUsers{Count: 8, Window: 1024, OnFrac: 0.5},
	}, false)
}

func sparse4kSpec(seed uint64, i int) serve.JobSpec {
	return jobSpec(scenario.Scenario{
		N: 128, Agents: 4096, K: 4,
		Seed:    freshSeed(seed, i),
		Horizon: 8192,
		Churn:   scenario.Churn{WakeSpread: 2000, LeaveFrac: 0.25, MinLife: 2048, MaxLife: 8192},
		PU:      scenario.PrimaryUsers{Count: 8, Window: 1024, OnFrac: 0.5},
		Grid:    scenario.Grid{Side: 64, Radius: 2.26},
	}, false)
}

// fleetKey is rvserve's session-reuse rule: the spec minus its horizon
// and per-request knobs.
func fleetKey(s serve.JobSpec) string {
	s.Scenario.Horizon = 0
	s.IncludeMeetings = false
	s.TimeoutMs = 0
	b, _ := json.Marshal(s) // plain structs: Marshal cannot fail
	return string(b)
}

// rungDur is how long each ladder rung of a run measuring dur lasts.
func (w workload) rungDur(dur time.Duration) time.Duration {
	return dur / time.Duration(len(w.ladder))
}

// ladderEnd is one past the last job index a full ladder of a run
// measuring dur sends.
func (w workload) ladderEnd(dur time.Duration) int {
	end := w.warmup
	for _, r := range w.ladder {
		end += int(r * w.rungDur(dur).Seconds())
	}
	return end
}

// checkShapes verifies the warm-up jobs span at least minShapes fleet
// shapes.
func (w workload) checkShapes(seed uint64) error {
	if w.minShapes == 0 {
		return nil
	}
	keys := map[string]bool{}
	for i := 0; i < w.warmup; i++ {
		keys[fleetKey(w.spec(seed, i))] = true
	}
	if len(keys) < w.minShapes {
		return fmt.Errorf("%s: warm-up spans %d fleet shapes, want ≥ %d", w.name, len(keys), w.minShapes)
	}
	return nil
}
