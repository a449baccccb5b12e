package simulator_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"rendezvous/internal/proptest"
	"rendezvous/internal/schedule"
	"rendezvous/internal/simulator"
)

// stripeEnv blocks every third (channel, slot) diagonal: a partly
// blocking environment, so some co-hops are not meetings.
type stripeEnv struct{}

func (stripeEnv) Available(ch, t int) bool { return (ch+t)%3 != 0 }

// ringFleet draws a fleet of the given size over every schedule family,
// with spread wakes and churn.
func ringFleet(t *testing.T, rng *rand.Rand, size int) []simulator.Agent {
	t.Helper()
	const n = 24
	agents := make([]simulator.Agent, size)
	for i := range agents {
		w := simulator.RandomOverlappingPair(rng, n, 1+rng.Intn(3), 1+rng.Intn(3))
		alg := proptest.MetaAlgs[rng.Intn(len(proptest.MetaAlgs))]
		s, err := proptest.BuildSchedule(alg, n, w.A, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		a := simulator.Agent{Name: fmt.Sprintf("a%03d", i), Sched: s, Wake: rng.Intn(900)}
		if rng.Intn(3) == 0 {
			a.Leave = a.Wake + 1 + rng.Intn(2000)
		}
		agents[i] = a
	}
	return agents
}

// TestPairwiseRingAndChunks checks the pairwise scan's block ring and
// its pair-list chunks against the brute-force per-slot oracle,
// proptest.ReferenceRun, at 1, 2, 3 and 8 workers, under churn and a
// partly blocking environment, on three fleets:
//
//   - a contact fleet on contact-edge (CSR) pair state, whose pairs
//     skip around within the cell-major id order;
//   - a small dense fleet;
//   - a dense fleet whose first and last agents share a channel and
//     are active together, so the pair list's widest pair spans every
//     id, with live agents in between: a ring with one block fewer than
//     that span overwrites one of that pair's blocks with the other's.
//
// Every run must reproduce the oracle meeting for meeting on the
// pairwise route.
func TestPairwiseRingAndChunks(t *testing.T) {
	const horizon = 2900
	rng := rand.New(rand.NewSource(29))

	contact := ringFleet(t, rng, 60)
	topo := &simulator.ContactTopology{
		CellsX: 4, CellsY: 4, Radius: 1,
		Cell: make([]int32, len(contact)), X: make([]float32, len(contact)), Y: make([]float32, len(contact)),
	}
	for i := range contact {
		x, y := rng.Float64()*4, rng.Float64()*4
		topo.X[i], topo.Y[i] = float32(x), float32(y)
		topo.Cell[i] = int32(int(y)*4 + int(x))
	}
	csr, err := simulator.NewEngineContact(contact, topo)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle knows no topology: keep its meetings of in-range pairs,
	// recomputed from the raw positions.
	pos := make(map[string]int, len(contact))
	for i, a := range contact {
		pos[a.Name] = i
	}
	inRange := func(key [2]string) bool {
		i, j := pos[key[0]], pos[key[1]]
		dx, dy := float64(topo.X[i])-float64(topo.X[j]), float64(topo.Y[i])-float64(topo.Y[j])
		return dx*dx+dy*dy <= topo.Radius*topo.Radius
	}

	small := ringFleet(t, rng, 12)

	wide := ringFleet(t, rng, 16)
	first, last := &wide[0], &wide[len(wide)-1]
	first.Wake, first.Leave = 100, 0
	last.Wake, last.Leave = 300, 0
	sched, err := proptest.BuildSchedule("general", 24, []int{3, 7, 11}, 5)
	if err != nil {
		t.Fatal(err)
	}
	first.Sched = sched
	if last.Sched, err = proptest.BuildSchedule("ours", 24, []int{2, 7, 19}, 6); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		agents []simulator.Agent
		eng    func() (*simulator.Engine, error)
		keep   func([2]string) bool
	}{
		{"csr", contact, func() (*simulator.Engine, error) { return csr, nil }, inRange},
		{"small", small, func() (*simulator.Engine, error) { return simulator.NewEngine(small) }, nil},
		{"widest-span", wide, func() (*simulator.Engine, error) { return simulator.NewEngine(wide) }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := tc.eng()
			if err != nil {
				t.Fatal(err)
			}
			want := proptest.ReferenceRun(tc.agents, horizon, stripeEnv{})
			for key := range want {
				if tc.keep != nil && !tc.keep(key) {
					delete(want, key)
				}
			}
			if len(want) == 0 {
				t.Fatal("fixture: the oracle records no meeting")
			}
			for _, workers := range []int{1, 2, 3, 8} {
				res := eng.RunParallelEnv(horizon, workers, stripeEnv{})
				if r := eng.LastRoute(); r != simulator.RoutePairwise {
					t.Fatalf("workers=%d: routed %v, want pairwise", workers, r)
				}
				if got := proptest.ResultMeetings(res); !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: %d meetings diverged from the reference run's %d:\n got %v\nwant %v",
						workers, len(got), len(want), got, want)
				}
			}
		})
	}
}

// maskCounter wraps a schedule.HopMasker, forwards HopMask to it, and
// counts the engine's ChannelBlock calls per global window. Its Period
// is past any test horizon, so the engine never compiles it and every
// fill the scan makes is counted.
type maskCounter struct {
	schedule.Schedule
	wake  int
	fills []atomic.Int32 // per global window
}

func (m *maskCounter) Period() int { return 1 << 40 }

func (m *maskCounter) HopMask(start, n int) uint64 {
	return m.Schedule.(schedule.HopMasker).HopMask(start, n)
}

func (m *maskCounter) ChannelBlock(dst []int, start int) {
	// The scan fills a block within one window, so its first slot names
	// the window.
	m.fills[(start+m.wake)/simulator.BlockLen].Add(1)
	schedule.FillBlock(m.Schedule, dst, start)
}

// coldFleet is ten `ours` agents over 128 channels that all hold
// channel 100 and otherwise hold channels of their own, with spread
// wakes and some leavers. Each agent's c0 = min(S) is its own, so two
// agents' hop masks intersect only in windows where both hop channel
// 100 or, with aliased, where an odd agent hops channel c + 64 while
// its even neighbour hops c: the two share mask bit c & 63 but no
// channel.
func coldFleet(t *testing.T, aliased bool) []simulator.Agent {
	t.Helper()
	agents := make([]simulator.Agent, 10)
	for k := range agents {
		second := 20 + k
		if aliased && k%2 == 1 {
			second = 20 + k - 1 + 64
		}
		s, err := schedule.NewAsync(128, []int{k + 1, second, 100})
		if err != nil {
			t.Fatal(err)
		}
		agents[k] = simulator.Agent{Name: fmt.Sprintf("a%02d", k), Sched: s, Wake: k * 389 % 1700}
		if k%3 == 2 {
			agents[k].Leave = agents[k].Wake + 2500 + k*311
		}
	}
	return agents
}

// TestPairwiseSkipsColdWindows pins the pairwise scan's hop-mask skip
// on fleets whose pairs share a channel in only a few windows. An
// agent's block may be filled in a window only if some pair of it that
// is still searching there has intersecting hop masks; at one worker it
// is filled exactly in those windows, once. The runs must reproduce
// proptest.ReferenceRun meeting for meeting. In the aliased fleet some
// hot windows hold pairs that share a mask bit but no channel, so the
// scan compares slots there and must still find nothing.
func TestPairwiseSkipsColdWindows(t *testing.T) {
	const horizon = 7000
	window := simulator.BlockLen
	windows := (horizon + window - 1) / window
	for _, aliased := range []bool{false, true} {
		t.Run(fmt.Sprintf("aliased=%v", aliased), func(t *testing.T) {
			agents := coldFleet(t, aliased)
			want := proptest.ReferenceRun(agents, horizon, stripeEnv{})
			if len(want) == 0 {
				t.Fatal("fixture: the oracle records no meeting")
			}
			end := func(a simulator.Agent) int {
				if a.Leave > 0 && a.Leave < horizon {
					return a.Leave
				}
				return horizon
			}
			// mask[a][w] is agent a's hop mask over its active slots in
			// window w, and chans[a][w] the channels it hops there.
			mask := make([][]uint64, len(agents))
			chans := make([][]map[int]bool, len(agents))
			for a, ag := range agents {
				mask[a] = make([]uint64, windows)
				chans[a] = make([]map[int]bool, windows)
				for w := range windows {
					from, to := max(w*window, ag.Wake), min((w+1)*window, end(ag))
					if from >= to {
						continue
					}
					mask[a][w] = ag.Sched.(schedule.HopMasker).HopMask(from-ag.Wake, to-from)
					chans[a][w] = map[int]bool{}
					for s := from; s < to; s++ {
						chans[a][w][ag.Sched.Channel(s-ag.Wake)] = true
					}
				}
			}
			// needed[a][w]: some pair of a is still searching in window
			// w; hot[a][w]: one of them has intersecting masks there.
			needed, hot := make([][]bool, len(agents)), make([][]bool, len(agents))
			for a := range hot {
				needed[a], hot[a] = make([]bool, windows), make([]bool, windows)
			}
			aliasOnly := 0
			for a := range agents {
				for b := a + 1; b < len(agents); b++ {
					start, stop := max(agents[a].Wake, agents[b].Wake), min(end(agents[a]), end(agents[b]))
					if m, ok := want[[2]string{agents[a].Name, agents[b].Name}]; ok {
						stop = m.Slot + 1
					}
					for w := start / window; start < stop && w*window < stop; w++ {
						needed[a][w], needed[b][w] = true, true
						if mask[a][w]&mask[b][w] == 0 {
							continue
						}
						hot[a][w], hot[b][w] = true, true
						shared := false
						for c := range chans[a][w] {
							shared = shared || chans[b][w][c]
						}
						if !shared {
							aliasOnly++
						}
					}
				}
			}
			cold := 0
			for a := range agents {
				for w := range windows {
					if needed[a][w] && !hot[a][w] {
						cold++
					}
				}
			}
			if cold == 0 {
				t.Fatal("fixture: no window where an agent is needed and all its masks are disjoint")
			}
			if aliased && aliasOnly == 0 {
				t.Fatal("fixture: no window where two masks share a bit but not a channel")
			}
			for _, workers := range []int{1, 3} {
				counters := make([]*maskCounter, len(agents))
				wrapped := make([]simulator.Agent, len(agents))
				for i, a := range agents {
					counters[i] = &maskCounter{Schedule: a.Sched, wake: a.Wake, fills: make([]atomic.Int32, windows)}
					wrapped[i] = a
					wrapped[i].Sched = counters[i]
				}
				eng, err := simulator.NewEngine(wrapped)
				if err != nil {
					t.Fatal(err)
				}
				res := eng.RunParallelEnv(horizon, workers, stripeEnv{})
				if r := eng.LastRoute(); r != simulator.RoutePairwise {
					t.Fatalf("workers=%d: routed %v, want pairwise", workers, r)
				}
				if got := proptest.ResultMeetings(res); !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: %d meetings diverged from the reference run's %d:\n got %v\nwant %v",
						workers, len(got), len(want), got, want)
				}
				for a, c := range counters {
					for w := range windows {
						n := c.fills[w].Load()
						if n > 0 && !hot[a][w] {
							t.Errorf("workers=%d: %s filled in window %d, where every pair of it has disjoint masks",
								workers, agents[a].Name, w)
						}
						if workers == 1 && hot[a][w] && n != 1 {
							t.Errorf("workers=1: %s filled %d times in hot window %d, want once", agents[a].Name, n, w)
						}
					}
				}
			}
		})
	}
}
