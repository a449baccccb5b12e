package rendezvous_test

// One benchmark per evaluation artifact of the paper (see the
// per-experiment index in DESIGN.md) plus micro-benchmarks for the
// schedule primitives. The experiment benches regenerate the
// corresponding table/figure at CI scale per iteration; run
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured record.

import (
	"fmt"
	"math/rand"
	"testing"

	"rendezvous"
	"rendezvous/internal/asciiplot"
	"rendezvous/internal/bitstring"
	"rendezvous/internal/catalan"
	"rendezvous/internal/experiments"
	"rendezvous/internal/pairsched"
	"rendezvous/internal/schedule"
	"rendezvous/internal/simulator"
	"rendezvous/internal/sweep"
	"rendezvous/internal/tablecache"
)

// benchCfg leaves Workers at 0 (one worker per CPU), so every
// experiment bench exercises the sweep engine at full parallelism.
var benchCfg = experiments.Config{Quick: true, Seed: 1}

// sink defeats dead-code elimination in micro-benches.
var sink int

func BenchmarkTable1Asymmetric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Table1Asymmetric(benchCfg)
		sink += len(rep.Rows)
	}
}

func BenchmarkTable1Symmetric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Table1Symmetric(benchCfg)
		sink += len(rep.Rows)
	}
}

func BenchmarkFigure1Walk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink += len(asciiplot.Walk("fig1a", "11010"))
		sink += len(asciiplot.Walk("fig1b", "110001"))
	}
}

func BenchmarkFigure2Catalan(b *testing.B) {
	s := bitstring.MustParse("1101011000")
	for i := 0; i < b.N; i++ {
		sink += len(asciiplot.Walk("fig2a", s.String()))
		sink += len(asciiplot.Walk("fig2b", s.Rotate(3).String()))
	}
}

func BenchmarkFigure3TwoMax(b *testing.B) {
	s := bitstring.MustParse("1101011000")
	for i := 0; i < b.N; i++ {
		w := catalan.MakeTwoMaximal(s)
		sink += len(asciiplot.Walk("fig3b", w.String()))
	}
}

func BenchmarkTheorem1Pair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Theorem1(benchCfg)
		sink += len(rep.Rows)
	}
}

func BenchmarkTheorem3General(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Theorem3(benchCfg)
		sink += len(rep.Rows)
	}
}

func BenchmarkSymmetricWrapper(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.SymmetricWrapper(benchCfg)
		sink += len(rep.Rows)
	}
}

func BenchmarkBeaconProtocols(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Beacon(benchCfg)
		sink += len(rep.Rows)
	}
}

func BenchmarkLowerBoundRamsey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.LowerBoundRamsey(benchCfg)
		sink += len(rep.Rows)
	}
}

func BenchmarkLowerBoundAsync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.LowerBoundAsync(benchCfg)
		sink += len(rep.Rows)
	}
}

func BenchmarkOneRoundSDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.OneRound(benchCfg)
		sink += len(rep.Rows)
	}
}

// --- sweep-engine scaling --------------------------------------------

// BenchmarkTable1AsymmetricWorkers measures the engine's speedup on the
// Table 1 sweep: compare workers=1 against workers=4 (the reports are
// byte-identical — only wall-clock may differ). On a single-core host
// the curve is flat; on ≥4 cores workers=4 should run ≥2x faster.
func BenchmarkTable1AsymmetricWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		cfg := experiments.Config{Quick: true, Seed: 1, Workers: w}
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += len(experiments.Table1Asymmetric(cfg).Rows)
			}
		})
	}
}

// BenchmarkSweepOffsetsWorkers isolates the chunked offset sweep on a
// single large schedule pair.
func BenchmarkSweepOffsetsWorkers(b *testing.B) {
	a, err := rendezvous.New(1024, []int{3, 90, 512, 700})
	if err != nil {
		b.Fatal(err)
	}
	c, err := rendezvous.New(1024, []int{90, 400, 999})
	if err != nil {
		b.Fatal(err)
	}
	offsets := simulator.ExhaustiveOffsets(4096)
	for _, w := range []int{1, 2, 4} {
		r := sweep.Runner{Workers: w}
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := sweep.SweepOffsets(r, a, c, offsets, 1<<18)
				sink += st.Max
			}
		})
	}
}

// BenchmarkEngineRunParallelWorkers measures the pairwise multi-agent
// engine at one worker and at four on the 8-agent fleet
// BenchmarkEngineMultiAgent runs through Run (RunParallel at one
// worker).
func BenchmarkEngineRunParallelWorkers(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(2))
	var agents []rendezvous.Agent
	for i := 0; i < 8; i++ {
		w := simulator.RandomOverlappingPair(rng, n, 4, 4)
		s, err := rendezvous.New(n, w.A)
		if err != nil {
			b.Fatal(err)
		}
		agents = append(agents, rendezvous.Agent{
			Name: string(rune('a' + i)), Sched: s, Wake: rng.Intn(500),
		})
	}
	eng, err := rendezvous.NewEngine(agents)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := eng.RunParallel(50_000, w)
				sink += len(res.Meetings())
			}
		})
	}
}

// BenchmarkEngineJointWorkers measures the pairwise scan at several
// worker counts against RunEnv on a 256-agent fleet over a 40-channel
// universe. The benchmark and "serial" row names predate the removal of
// the serial occupancy scan and of the time-sharded joint scan, and are
// kept so the rows line up with the committed trajectory: "serial" is
// RunEnv, the scan at one worker, and the workers=N rows are
// RunParallelEnv, whose workers claim chunks of the fleet's 17,992
// meetable pairs. Primary users occupy 8 channels full-time, so some
// meetable pairs never meet and scan to the end of the horizon: stable
// per-iteration work with no early-exit noise. Results are
// byte-identical at every worker count; only wall-clock may differ. On
// a single-core host the curve is flat.
func BenchmarkEngineJointWorkers(b *testing.B) {
	sc := rendezvous.Scenario{
		N: 40, Agents: 256, K: 4, Seed: 7, Horizon: 1 << 14,
		Churn: rendezvous.Churn{WakeSpread: 2000},
		PU:    rendezvous.PrimaryUsers{Count: 8, Window: 1024, OnFrac: 1},
	}
	build, err := rendezvous.ScenarioBuilder("ours", sc.N, sc.Seed)
	if err != nil {
		b.Fatal(err)
	}
	agents, env, err := sc.Build(build)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := rendezvous.NewEngine(agents)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += eng.RunEnv(sc.Horizon, env).MetCount()
		}
	})
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += eng.RunParallelEnv(sc.Horizon, w, env).MetCount()
			}
		})
	}
}

// BenchmarkEngineInverted runs a 1024-agent NETWORK-shaped fleet (128
// channels, K=4, staggered wakes, 25% early leavers, eight windowed
// primary users at 50% duty) through RunParallelEnv at GOMAXPROCS
// workers. It reports slots/sec (higher is better) for the trajectory
// gate. The benchmark and "inverted" row names are kept so the row
// lines up with the committed trajectory, whose points measured the
// inverted-index posting scan that served this fleet before every run
// took the pairwise scan.
//
// The "horizons" row replays a warm rvserve session of the job
// benchmark's net1k-warm workload: one Session re-runs the fleet at
// horizons 4,096 and then 8,192 per iteration, at one worker. Both
// horizons lie past the fleet's last wake, so the row times how much of
// a horizon switch the engine rebuilds; it reports slots/sec over both
// runs.
func BenchmarkEngineInverted(b *testing.B) {
	sc := rendezvous.Scenario{
		N: 128, Agents: 1024, K: 4, Seed: 7, Horizon: 1 << 14,
		Churn: rendezvous.Churn{WakeSpread: 2000, LeaveFrac: 0.25,
			MinLife: 1 << 12, MaxLife: 1 << 14},
		PU: rendezvous.PrimaryUsers{Count: 8, Window: 1024, OnFrac: 0.5},
	}
	build, err := rendezvous.ScenarioBuilder("ours", sc.N, sc.Seed)
	if err != nil {
		b.Fatal(err)
	}
	agents, env, err := sc.Build(build)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := rendezvous.NewEngine(agents)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("inverted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += eng.RunParallelEnv(sc.Horizon, 0, env).MetCount()
		}
		b.ReportMetric(float64(sc.Horizon)*float64(b.N)/b.Elapsed().Seconds(), "slots/sec")
	})
	b.Run("horizons", func(b *testing.B) {
		sess := eng.Session()
		for i := 0; i < b.N; i++ {
			sink += sess.RunParallelEnv(4096, 1, env).MetCount()
			sink += sess.RunParallelEnv(8192, 1, env).MetCount()
		}
		b.ReportMetric(float64(4096+8192)*float64(b.N)/b.Elapsed().Seconds(), "slots/sec")
	})
}

// BenchmarkEngineSparse is the acceptance benchmark for the contact
// engine: a 4,096-agent NETWORK-SPARSE-shaped fleet (constant density,
// mean contact degree ≈ 16) run dense — the same fleet with the
// topology ignored, over all 8.4M pairs of triangular pair state — and
// through a contact engine, whose contact-edge pair state holds the
// in-range pairs only. Both run the pairwise scan over their meetable
// pairs. The contact
// sub-bench reports the candidate reduction (all pairs / contact
// edges) alongside slots/sec and fails below the ≥10× contract at this
// scale; both Results agree on every in-range pair by the
// contact-equivalence tests, so the comparison is pure performance.
func BenchmarkEngineSparse(b *testing.B) {
	const fleet = 4096
	sc := rendezvous.Scenario{
		N: 128, Agents: fleet, K: 4, Seed: 7, Horizon: 1 << 13,
		Churn: rendezvous.Churn{WakeSpread: 2000, LeaveFrac: 0.25,
			MinLife: 1 << 11, MaxLife: 1 << 13},
		PU:   rendezvous.PrimaryUsers{Count: 8, Window: 1024, OnFrac: 0.5},
		Grid: rendezvous.Grid{Side: 64, Radius: 2.26},
	}
	build, err := rendezvous.ScenarioBuilder("ours", sc.N, sc.Seed)
	if err != nil {
		b.Fatal(err)
	}
	agents, env, err := sc.Build(build)
	if err != nil {
		b.Fatal(err)
	}
	graph, err := sc.ContactGraph()
	if err != nil {
		b.Fatal(err)
	}
	pairs := float64(fleet) * float64(fleet-1) / 2
	reduction := pairs / float64(graph.Edges())
	dense, err := rendezvous.NewEngine(agents)
	if err != nil {
		b.Fatal(err)
	}
	contact, err := rendezvous.NewEngineContact(agents, graph.Topology())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += dense.RunParallelEnv(sc.Horizon, 0, env).MetCount()
		}
		b.ReportMetric(float64(sc.Horizon)*float64(b.N)/b.Elapsed().Seconds(), "slots/sec")
	})
	b.Run("contact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += contact.RunParallelEnv(sc.Horizon, 0, env).MetCount()
		}
		b.ReportMetric(float64(sc.Horizon)*float64(b.N)/b.Elapsed().Seconds(), "slots/sec")
		// Deterministic (same seed ⇒ same geometry), so every run —
		// a one-iteration CI smoke pass included — holds the floor.
		b.ReportMetric(reduction, "reduction")
		if reduction < 10 {
			b.Fatalf("candidate reduction %.1f×, want ≥ 10×", reduction)
		}
		if r := contact.LastRoute(); r != simulator.RoutePairwise {
			b.Fatalf("contact engine routed %v, want pairwise", r)
		}
	})
}

// --- session reuse & table cache --------------------------------------

// BenchmarkSessionReuse is the acceptance benchmark for the reuse
// layers, measuring one NETWORK-shaped fleet (256 agents, 128 channels,
// primary users) three ways:
//
//   - fresh-cold: engine per run against a brand-new table cache — the
//     pre-cache world, every run rebuilds its tables from nothing;
//   - fresh-warm: engine per run against one persistent cache — the
//     batch-sweep shape, table builds amortize across engines (hits/op
//     counts the borrowed tables);
//   - steady: one engine, one session, run after run — the rvserve
//     shape, where only the scan itself remains.
//
// All three produce byte-identical results (budget independence); only
// the amortized build cost differs. Each run is RunParallelEnv at one
// worker. The §3.2 schedule's 30,240-slot period is over half the
// horizon, so no schedule compiles and no run borrows a table:
// fresh-warm reads 0 hits/op, and the three rows differ by the engine
// build and the result arrays alone. The rows once timed dense and
// horizon-prefix tables, which left with the posting scan that read
// them; their names are kept so they line up with the committed
// trajectory.
func BenchmarkSessionReuse(b *testing.B) {
	sc := rendezvous.Scenario{
		N: 128, Agents: 256, K: 4, Seed: 7, Horizon: 1 << 13,
		Churn: rendezvous.Churn{WakeSpread: 2000},
		PU:    rendezvous.PrimaryUsers{Count: 8, Window: 1024, OnFrac: 0.5},
	}
	build, err := rendezvous.ScenarioBuilder("ours", sc.N, sc.Seed)
	if err != nil {
		b.Fatal(err)
	}
	agents, env, err := sc.Build(build)
	if err != nil {
		b.Fatal(err)
	}
	newEngine := func(b *testing.B) *rendezvous.Engine {
		eng, err := rendezvous.NewEngine(agents)
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}
	b.Run("fresh-cold", func(b *testing.B) {
		prev := simulator.SetTableCache(nil)
		defer simulator.SetTableCache(prev)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			simulator.SetTableCache(tablecache.New(tablecache.DefaultBudget))
			eng := newEngine(b)
			sink += eng.RunParallelEnv(sc.Horizon, 1, env).MetCount()
			eng.Close()
		}
	})
	b.Run("fresh-warm", func(b *testing.B) {
		c := tablecache.New(tablecache.DefaultBudget)
		prev := simulator.SetTableCache(c)
		defer simulator.SetTableCache(prev)
		eng := newEngine(b)
		sink += eng.RunParallelEnv(sc.Horizon, 1, env).MetCount() // fill the cache, if anything compiles
		eng.Close()
		filled := c.Stats().Hits
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := newEngine(b)
			sink += eng.RunParallelEnv(sc.Horizon, 1, env).MetCount()
			eng.Close()
		}
		b.ReportMetric(float64(c.Stats().Hits-filled)/float64(b.N), "hits/op")
	})
	b.Run("steady", func(b *testing.B) {
		prev := simulator.SetTableCache(tablecache.New(tablecache.DefaultBudget))
		defer simulator.SetTableCache(prev)
		eng := newEngine(b)
		defer eng.Close()
		sess := eng.Session()
		sink += sess.RunParallelEnv(sc.Horizon, 1, env).MetCount() // warm pools + result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sess.Reset()
			sink += sess.RunParallelEnv(sc.Horizon, 1, env).MetCount()
		}
	})
}

// --- block evaluation -------------------------------------------------

// runBlockBench runs fn as the "block" sub-benchmark. The sub-benchmark
// name predates the removal of the per-slot evaluation mode and is kept
// so these rows line up with the committed benchmark trajectory.
func runBlockBench(b *testing.B, fn func(b *testing.B)) {
	b.Run("block", fn)
}

// BenchmarkGeneralPairScan measures raw pairwise scan throughput on two
// Theorem-3 schedules with DISJOINT channel sets, so every scan runs
// the full horizon (1<<16 slots/op) instead of stopping at an early
// rendezvous. This is the acceptance benchmark for the block layer.
func BenchmarkGeneralPairScan(b *testing.B) {
	a, err := rendezvous.NewGeneral(1024, []int{3, 90, 512, 700})
	if err != nil {
		b.Fatal(err)
	}
	c, err := rendezvous.NewGeneral(1024, []int{91, 400, 999})
	if err != nil {
		b.Fatal(err)
	}
	runBlockBench(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := rendezvous.PairTTR(a, c, 0, 17, 1<<16); ok {
				b.Fatal("disjoint sets rendezvoused")
			}
		}
	})
}

// BenchmarkSymmetricPairScan is the same full-horizon scan through the
// §3.2 wrapper stack (Symmetric over General), the flagship hot path.
func BenchmarkSymmetricPairScan(b *testing.B) {
	a, err := rendezvous.New(1024, []int{3, 90, 512, 700})
	if err != nil {
		b.Fatal(err)
	}
	c, err := rendezvous.New(1024, []int{91, 400, 999})
	if err != nil {
		b.Fatal(err)
	}
	runBlockBench(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := rendezvous.PairTTR(a, c, 0, 17, 1<<16); ok {
				b.Fatal("disjoint sets rendezvoused")
			}
		}
	})
}

// BenchmarkEngineRunModes measures Run (the pairwise scan at one
// worker) on an 8-agent fleet over 50k slots.
func BenchmarkEngineRunModes(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(2))
	var agents []rendezvous.Agent
	for i := 0; i < 8; i++ {
		w := simulator.RandomOverlappingPair(rng, n, 4, 4)
		s, err := rendezvous.New(n, w.A)
		if err != nil {
			b.Fatal(err)
		}
		agents = append(agents, rendezvous.Agent{
			Name: string(rune('a' + i)), Sched: s, Wake: rng.Intn(500),
		})
	}
	eng, err := rendezvous.NewEngine(agents)
	if err != nil {
		b.Fatal(err)
	}
	runBlockBench(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := eng.Run(50_000)
			sink += len(res.Meetings())
		}
	})
}

// BenchmarkCompiledSweep measures an adversarial offset sweep: two
// CRSEQ schedules with disjoint channel sets never meet, so every
// offset exhausts the horizon and SweepOffsets's ski-rental kicks in,
// compiling both schedules after the first few offsets and replaying
// flat hop tables for the rest.
func BenchmarkCompiledSweep(b *testing.B) {
	a, err := rendezvous.NewCRSEQ(64, []int{3, 21, 40, 63})
	if err != nil {
		b.Fatal(err)
	}
	c, err := rendezvous.NewCRSEQ(64, []int{10, 33, 59})
	if err != nil {
		b.Fatal(err)
	}
	offsets := simulator.ExhaustiveOffsets(128)
	runBlockBench(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := simulator.SweepOffsets(a, c, offsets, a.Period())
			sink += st.Failures
		}
	})
}

// --- micro-benchmarks -------------------------------------------------

func BenchmarkNewSchedule(b *testing.B) {
	set := []int{3, 90, 512, 700, 999}
	for i := 0; i < b.N; i++ {
		s, err := rendezvous.New(1024, set)
		if err != nil {
			b.Fatal(err)
		}
		sink += s.Period()
	}
}

func BenchmarkPairWordConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := pairsched.Word(1<<20, 90, 700)
		if err != nil {
			b.Fatal(err)
		}
		sink += w.Len()
	}
}

func benchmarkChannelLookup(b *testing.B, s rendezvous.Schedule) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += s.Channel(i)
	}
}

func BenchmarkChannelLookupOurs(b *testing.B) {
	s, err := rendezvous.New(1024, []int{3, 90, 512, 700, 999})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkChannelLookup(b, s)
}

func BenchmarkChannelLookupCRSEQ(b *testing.B) {
	s, err := rendezvous.NewCRSEQ(1024, []int{3, 90, 512, 700, 999})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkChannelLookup(b, s)
}

func BenchmarkChannelLookupJumpStay(b *testing.B) {
	s, err := rendezvous.NewJumpStay(1024, []int{3, 90, 512, 700, 999})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkChannelLookup(b, s)
}

func BenchmarkChannelLookupBeaconWalk(b *testing.B) {
	s, err := rendezvous.NewBeaconWalk(1024, []int{3, 90, 512, 700, 999},
		rendezvous.NewBeaconSource(1), rendezvous.BeaconConfig{})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkChannelLookup(b, s)
}

func BenchmarkPairTTRMeasurement(b *testing.B) {
	a, err := rendezvous.New(1024, []int{3, 90, 512})
	if err != nil {
		b.Fatal(err)
	}
	c, err := rendezvous.New(1024, []int{90, 700})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ttr, ok := rendezvous.PairTTR(a, c, 0, rng.Intn(100_000), 1<<22)
		if !ok {
			b.Fatal("missed rendezvous")
		}
		sink += ttr
	}
}

func BenchmarkEngineMultiAgent(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(2))
	var agents []rendezvous.Agent
	for i := 0; i < 8; i++ {
		w := simulator.RandomOverlappingPair(rng, n, 4, 4)
		s, err := rendezvous.New(n, w.A)
		if err != nil {
			b.Fatal(err)
		}
		agents = append(agents, rendezvous.Agent{
			Name: string(rune('a' + i)), Sched: s, Wake: rng.Intn(500),
		})
	}
	eng, err := rendezvous.NewEngine(agents)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eng.Run(50_000)
		sink += len(res.Meetings())
	}
}

func BenchmarkMultiAgentDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.MultiAgent(benchCfg)
		sink += len(rep.Rows)
	}
}

// BenchmarkNetworkScenarios regenerates the NETWORK report (CI scale):
// fleets under churn + primary users across all four algorithms.
func BenchmarkNetworkScenarios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Network(benchCfg)
		sink += len(rep.Rows)
	}
}

// BenchmarkScenarioFleet measures one churn + primary-user scenario run
// through the public API at increasing fleet sizes — the network-scale
// hot path (pair pruning, pairwise block scans, environment checks).
func BenchmarkScenarioFleet(b *testing.B) {
	for _, agents := range []int{64, 256} {
		sc := rendezvous.Scenario{
			N: 128, Agents: agents, K: 4, Seed: 1, Horizon: 1 << 14,
			Churn: rendezvous.Churn{WakeSpread: 2000, LeaveFrac: 0.25, MinLife: 1 << 12, MaxLife: 1 << 14},
			PU:    rendezvous.PrimaryUsers{Count: 8, Window: 1024, OnFrac: 0.5},
		}
		build, err := rendezvous.ScenarioBuilder("ours", sc.N, sc.Seed)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, _, err := sc.Run(build, 0)
				if err != nil {
					b.Fatal(err)
				}
				sink += res.MetCount()
			}
		})
	}
}

// --- cold-path ledger rows ---------------------------------------------

// BenchmarkScenarioOpen is the derivation ledger row of a cold rvserve
// job on the sparse4k fleet shape (4,096 agents on the 64×64 contact
// grid, churn and primary users): Scenario.Open — fleet derivation
// (channel sets, wakes, positions) plus the contact engine build — then
// the contact graph, a one-block run, and Fleet.Summarize over it. The
// horizon is cut to one 256-slot block so the scan stays a small share
// and the row tracks derivation, engine build and summarize; ns/agent
// is the per-agent cost of the whole sequence.
func BenchmarkScenarioOpen(b *testing.B) {
	const agents = 4096
	sc := rendezvous.Scenario{
		N: 128, Agents: agents, K: 4, Seed: 7, Horizon: 256,
		Churn: rendezvous.Churn{WakeSpread: 2000, LeaveFrac: 0.25, MinLife: 2048, MaxLife: 8192},
		PU:    rendezvous.PrimaryUsers{Count: 8, Window: 1024, OnFrac: 0.5},
		Grid:  rendezvous.Grid{Side: 64, Radius: 2.26},
	}
	build, err := rendezvous.ScenarioBuilder("ours", sc.N, sc.Seed)
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fl, err := sc.Open(build)
			if err != nil {
				b.Fatal(err)
			}
			sink += fl.Graph().Edges()
			res := fl.Eng.RunParallelEnv(sc.Horizon, 1, fl.Env)
			sink += fl.Summarize(res, sc.Horizon).MetPairs
			fl.Close()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/agents, "ns/agent")
	})
}

// BenchmarkSymmetricChannelBlock is the §3.2 fill ledger row: one
// 256-slot ChannelBlock of the flagship wrapper (Symmetric over
// General), the call the pairwise scan and Compile make
// for every "ours" agent. The start advances each iteration so the
// inner schedule is evaluated at fresh slots; ns/slot is the per-slot
// fill cost.
func BenchmarkSymmetricChannelBlock(b *testing.B) {
	s, err := rendezvous.New(1024, []int{3, 90, 512, 700})
	if err != nil {
		b.Fatal(err)
	}
	blk, ok := s.(schedule.BlockEvaluator)
	if !ok {
		b.Fatal("flagship schedule has no ChannelBlock")
	}
	const slots = 256
	dst := make([]int, slots)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.ChannelBlock(dst, (i*slots+5)%s.Period())
		sink += dst[slots-1]
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/slots, "ns/slot")
}
