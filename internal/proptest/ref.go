package proptest

import (
	"sort"

	"rendezvous/internal/schedule"
	"rendezvous/internal/simulator"
)

// ReferenceRun is the brute-force oracle engine: a literal transcription
// of the model in the simulator's package doc, sharing none of the
// engine's machinery. No blocks, no compiled tables, no hop masks,
// no pair pruning, no early exit — every slot, every pair, raw
// Sched.Channel. O(agents² · horizon), so callers keep instances small.
//
// It is the one oracle the engine-equivalence properties and fuzz
// targets check every engine path against.
func ReferenceRun(agents []simulator.Agent, horizon int, env simulator.Environment) map[[2]string]simulator.Meeting {
	met := make(map[[2]string]simulator.Meeting)
	for t := 0; t < horizon; t++ {
		for i := range agents {
			for j := i + 1; j < len(agents); j++ {
				a, b := agents[i], agents[j]
				if !activeAt(a, t) || !activeAt(b, t) {
					continue
				}
				ch := a.Sched.Channel(t - a.Wake)
				if ch != b.Sched.Channel(t-b.Wake) {
					continue
				}
				if env != nil && !env.Available(ch, t) {
					continue
				}
				key := nameKey(a.Name, b.Name)
				if _, done := met[key]; done {
					continue
				}
				both := max(a.Wake, b.Wake)
				met[key] = simulator.Meeting{A: key[0], B: key[1], Slot: t, Channel: ch, TTR: t - both}
			}
		}
	}
	return met
}

func activeAt(a simulator.Agent, t int) bool {
	return t >= a.Wake && (a.Leave == 0 || t < a.Leave)
}

func nameKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// ResultMeetings flattens an engine Result into the oracle's map shape
// for comparison.
func ResultMeetings(res *simulator.Result) map[[2]string]simulator.Meeting {
	out := make(map[[2]string]simulator.Meeting, res.MetCount())
	for _, m := range res.Meetings() {
		out[nameKey(m.A, m.B)] = m
	}
	return out
}

// Relabeled wraps a schedule with an injective channel relabeling π:
// Channel(t) = π(inner.Channel(t)). Meeting *structure* (who meets
// whom, at which slot) is invariant under a common relabeling of every
// agent's schedule — the engine-level metamorphic oracle that pins the
// engine's channel handling end to end.
type Relabeled struct {
	inner schedule.Schedule
	pi    map[int]int
}

var _ schedule.Schedule = (*Relabeled)(nil)
var _ schedule.BlockEvaluator = (*Relabeled)(nil)

// NewRelabeled wraps inner with relabeling pi, which must be injective
// on the inner schedule's complete hop set.
func NewRelabeled(inner schedule.Schedule, pi map[int]int) *Relabeled {
	return &Relabeled{inner: inner, pi: pi}
}

// Channel implements Schedule.
func (r *Relabeled) Channel(t int) int { return r.pi[r.inner.Channel(t)] }

// ChannelBlock implements BlockEvaluator.
func (r *Relabeled) ChannelBlock(dst []int, start int) {
	schedule.FillBlock(r.inner, dst, start)
	for i := range dst {
		dst[i] = r.pi[dst[i]]
	}
}

// Period implements Schedule.
func (r *Relabeled) Period() int { return r.inner.Period() }

// Channels implements Schedule.
func (r *Relabeled) Channels() []int { return r.mapSet(r.inner.Channels()) }

// AllChannels propagates the relabeled complete hop set.
func (r *Relabeled) AllChannels() []int { return r.mapSet(schedule.AllChannels(r.inner)) }

// PeriodIsEventual propagates the EventualPeriod marker.
func (r *Relabeled) PeriodIsEventual() bool { return schedule.IsEventuallyPeriodic(r.inner) }

func (r *Relabeled) mapSet(in []int) []int {
	out := make([]int, len(in))
	for i, c := range in {
		out[i] = r.pi[c]
	}
	sort.Ints(out)
	return out
}

// relabeledEnv translates environment decisions back through the
// relabeling: channel π(c) in the relabeled run is available exactly
// when c is in the original.
type relabeledEnv struct {
	inner simulator.Environment
	inv   map[int]int
}

// Available implements simulator.Environment.
func (e relabeledEnv) Available(ch, t int) bool {
	c, ok := e.inv[ch]
	if !ok {
		return true // channel no agent hops; decision is irrelevant
	}
	return e.inner.Available(c, t)
}

// shiftedEnv delays environment decisions by d slots: slot t of the
// shifted run corresponds to slot t−d of the original, so a fleet whose
// wakes are all shifted by d sees the same availability pattern.
type shiftedEnv struct {
	inner simulator.Environment
	d     int
}

// Available implements simulator.Environment.
func (e shiftedEnv) Available(ch, t int) bool {
	if t < e.d {
		return true // before the shifted origin no agent is awake
	}
	return e.inner.Available(ch, t-e.d)
}
