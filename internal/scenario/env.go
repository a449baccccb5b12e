package scenario

import (
	"fmt"
	"math"

	"rendezvous/internal/baselines"
	"rendezvous/internal/schedule"
	"rendezvous/internal/simulator"
)

// environment implements simulator.Environment for a scenario's
// primary-user and jammer dynamics. Available is a pure function of
// (ch, t): primary-user activity is windowed (each PU is ON for a fixed
// contiguous stretch of every window, positioned per window by a
// SplitMix64 draw), and the jammer position is arithmetic on t. That
// random-access purity is what keeps runs identical at any worker
// count.
type environment struct {
	seed uint64

	// Primary users: puByChan[ch] lists the PU process ids camped on ch.
	puByChan map[int][]int
	window   int
	onSlots  int

	// Jammer sweep.
	jamDwell  int
	jamStride int
	jamChans  []int // cyclic target list; empty means the whole universe
	n         int
}

var _ simulator.Environment = (*environment)(nil)

// environment derives the Environment for the scenario, or nil when it
// has no spectrum dynamics.
func (sc Scenario) environment() simulator.Environment {
	hasPU := sc.PU.Count > 0 && sc.PU.OnFrac > 0
	hasJam := sc.Jammer.Dwell > 0
	if !hasPU && !hasJam {
		return nil
	}
	env := &environment{seed: sc.Seed, n: sc.N}
	if hasPU {
		env.window = sc.PU.Window
		// Round half-up so OnFrac=1 saturates the window and tiny
		// fractions still produce at least the rounded slot count.
		env.onSlots = int(math.Round(sc.PU.OnFrac * float64(sc.PU.Window)))
		env.puByChan = make(map[int][]int)
		for p := 0; p < sc.PU.Count; p++ {
			ch := 1 + int(uint64(mix(sc.Seed, streamPUChan, p))%uint64(sc.N))
			env.puByChan[ch] = append(env.puByChan[ch], p)
		}
	}
	if hasJam {
		env.jamDwell = sc.Jammer.Dwell
		env.jamStride = sc.Jammer.Stride
		if env.jamStride == 0 {
			env.jamStride = 1
		}
		if len(sc.Jammer.Channels) > 0 {
			env.jamChans, _ = schedule.ValidateChannels(sc.N, sc.Jammer.Channels)
		}
	}
	return env
}

// Available implements simulator.Environment.
func (e *environment) Available(ch, t int) bool {
	if e.jamDwell > 0 && ch == e.jammedAt(t) {
		return false
	}
	for _, p := range e.puByChan[ch] {
		if e.puActive(p, t) {
			return false
		}
	}
	return true
}

// jammedAt returns the channel the sweeping jammer occupies at slot t.
func (e *environment) jammedAt(t int) int {
	step := t / e.jamDwell
	if len(e.jamChans) > 0 {
		return e.jamChans[(step*e.jamStride)%len(e.jamChans)]
	}
	return 1 + (step*e.jamStride)%e.n
}

// puActive reports whether PU process p occupies its channel at slot t:
// within window w = t/window it is ON for onSlots contiguous slots
// starting at a position drawn from the (seed, p, w) stream.
func (e *environment) puActive(p, t int) bool {
	if e.onSlots <= 0 {
		return false
	}
	if e.onSlots >= e.window {
		return true
	}
	w := t / e.window
	h := uint64(mix(e.seed, streamPUOn, p)) + uint64(w)*0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	start := int(h % uint64(e.window-e.onSlots+1))
	off := t % e.window
	return off >= start && off < start+e.onSlots
}

// Coverage summarizes fleet discovery: how many set-overlapping,
// lifetime-overlapping pairs exist, how many met, and the TTR profile of
// the meetings.
type Coverage struct {
	Agents        int
	EligiblePairs int // hop sets overlap and activity windows intersect
	MetPairs      int
	MeanTTR       float64 // over met pairs; 0 when none met
	LastSlot      int     // latest first-meeting slot among met pairs
}

// MetFrac returns the fraction of eligible pairs that met (1 when there
// are no eligible pairs — nothing was missed).
func (c Coverage) MetFrac() float64 {
	if c.EligiblePairs == 0 {
		return 1
	}
	return float64(c.MetPairs) / float64(c.EligiblePairs)
}

// Summarize computes Coverage for a finished run. Eligibility mirrors
// the engine's pair pruning: complete hop sets intersect, both
// activity windows overlap below the horizon, and — for contact runs —
// the pair is within contact range. The loop is all-pairs; scenarios
// with a Grid should prefer SummarizeContact, which walks only the
// contact edges.
func Summarize(res *simulator.Result, agents []simulator.Agent, horizon int) Coverage {
	cov := Coverage{Agents: len(agents)}
	sets := make([][]int, len(agents))
	for i := range agents {
		sets[i] = schedule.AllChannels(agents[i].Sched)
	}
	var sum int64
	for i := range agents {
		for j := i + 1; j < len(agents); j++ {
			if !simulator.Coexist(agents[i], agents[j], horizon) || !simulator.SetsIntersect(sets[i], sets[j]) {
				continue
			}
			if !res.PairInRange(agents[i].Name, agents[j].Name) {
				continue
			}
			cov.EligiblePairs++
			m, ok := res.Meeting(agents[i].Name, agents[j].Name)
			if !ok {
				continue
			}
			cov.MetPairs++
			sum += int64(m.TTR)
			if m.Slot > cov.LastSlot {
				cov.LastSlot = m.Slot
			}
		}
	}
	if cov.MetPairs > 0 {
		cov.MeanTTR = float64(sum) / float64(cov.MetPairs)
	}
	return cov
}

// baselineBuilder maps the baseline algorithm names onto their
// constructors, deriving per-agent seeds for the randomized ones.
func baselineBuilder(alg string, n int, seed uint64) (Builder, error) {
	switch alg {
	case "crseq":
		return func(set []int, _ int) (schedule.Schedule, error) {
			return baselines.NewCRSEQ(n, set)
		}, nil
	case "crseq-rand":
		return func(set []int, a int) (schedule.Schedule, error) {
			return baselines.NewCRSEQRandomized(n, set, uint64(mix(seed, streamAlg, a)))
		}, nil
	case "jumpstay":
		return func(set []int, _ int) (schedule.Schedule, error) {
			return baselines.NewJumpStay(n, set)
		}, nil
	case "random":
		return func(set []int, a int) (schedule.Schedule, error) {
			return baselines.NewRandom(n, set, uint64(mix(seed, streamAlg, a)), 1<<22)
		}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown algorithm %q (want ours, general, crseq, crseq-rand, jumpstay, random)", alg)
	}
}
