package simulator_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rendezvous/internal/proptest"
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
