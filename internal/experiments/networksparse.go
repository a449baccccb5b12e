package experiments

import (
	"fmt"
	"math"

	"rendezvous/internal/scenario"
	"rendezvous/internal/sweep"
)

// NetworkSparse measures fleet discovery once the network has geometry:
// the NETWORK workload (churn, primary users, the same builders) placed
// on a √agents × √agents plane with a fixed contact radius, so agent
// density — and with it the mean contact degree, ≈ π·r² ≈ 16 — is
// constant as the fleet grows. The all-pairs candidate space grows
// O(agents²) while the contact-edge space grows O(agents): the reduce
// column is that ratio, the quantity that lets the contact engine
// (pair state and scanned pairs both O(contact edges)) hold slot
// throughput roughly flat where the dense engines hit the quadratic
// wall. Both full-scale rows route pairwise (eligible pairs at seed 1:
// 2,590 and 10,760): they are contact fleets, whose edge-indexed pair
// state always takes the pairwise scan.
//
// Every fleet is a scenario derived purely from the seed (positions
// included, stream 505), each (fleet, algorithm) cell is one sweep job,
// and the contact engine's decompositions are exact — the report is
// byte-identical at any worker count.
func NetworkSparse(cfg Config) *Report {
	fleets := []int{1024, 4096}
	horizon := 1 << 14
	if cfg.Quick {
		fleets = []int{64, 256}
		horizon = 1 << 12
	}
	const (
		n      = 128
		k      = 4
		radius = 2.26 // mean degree ≈ π·r² ≈ 16 at unit density
	)
	algs := []string{"ours", "jumpstay"}
	rep := &Report{
		ID: "NETWORK-SPARSE",
		Title: fmt.Sprintf("Fleet discovery on a contact graph (n=%d, k=%d, radius=%.2f, horizon=%d)",
			n, k, radius, horizon),
		Header: []string{
			"agents", "alg", "pairs", "edges", "reduce", "eligible", "met", "met%", "mean-ttr",
		},
	}
	// Same batched shape as NETWORK: derive the grid serially, submit it
	// through scenario.RunMany (shared table cache, one worker pool),
	// summarize in submission order.
	total := len(fleets) * len(algs)
	type cellMeta struct {
		fleet int
		alg   string
		err   error
	}
	metas := make([]cellMeta, total)
	jobs := make([]scenario.RunJob, total)
	scs := make([]scenario.Scenario, total)
	for job := 0; job < total; job++ {
		fleet := fleets[job/len(algs)]
		alg := algs[job%len(algs)]
		sc := scenario.Scenario{
			Name:    "network-sparse",
			N:       n,
			Agents:  fleet,
			K:       k,
			Seed:    uint64(sweep.DeriveSeed(cfg.Seed+1200, job/len(algs))),
			Horizon: horizon,
			Churn: scenario.Churn{
				WakeSpread: 2000,
				LeaveFrac:  0.25,
				MinLife:    horizon / 4,
				MaxLife:    horizon,
			},
			PU:   scenario.PrimaryUsers{Count: 8, Window: 1024, OnFrac: 0.5},
			Grid: scenario.Grid{Side: math.Sqrt(float64(fleet)), Radius: radius},
		}
		metas[job] = cellMeta{fleet: fleet, alg: alg}
		scs[job] = sc
		build, err := scenario.BuilderFor(alg, n, sc.Seed+uint64(job%len(algs)))
		if err != nil {
			metas[job].err = err
			continue
		}
		jobs[job] = scenario.RunJob{Sc: sc, Build: build}
	}
	outs := scenario.RunMany(cfg.runner(1200), jobs)
	for job, out := range outs {
		c := metas[job]
		if c.err == nil {
			c.err = out.Err
		}
		var graph *scenario.ContactGraph
		if c.err == nil {
			var err error
			// ContactGraph is a pure function of the scenario — O(agents)
			// with the cell grid — so rebuilding it here, outside the
			// batch, costs noise.
			graph, err = scs[job].ContactGraph()
			c.err = err
		}
		if c.err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s @ %d agents failed: %v", c.alg, c.fleet, c.err))
			continue
		}
		// SummarizeContact walks the O(agents) contact edges; the
		// all-pairs Summarize would be the very O(agents²) loop this
		// experiment exists to retire.
		cov := scenario.SummarizeContact(out.Res, out.Agents, horizon, graph)
		pairs := c.fleet * (c.fleet - 1) / 2
		reduce := "-"
		if edges := graph.Edges(); edges > 0 {
			reduce = fmt.Sprintf("%.0fx", float64(pairs)/float64(edges))
		}
		rep.Rows = append(rep.Rows, []string{
			itoa(c.fleet),
			c.alg,
			itoa(pairs),
			itoa(graph.Edges()),
			reduce,
			itoa(cov.EligiblePairs),
			itoa(cov.MetPairs),
			fmt.Sprintf("%.1f", 100*cov.MetFrac()),
			fmt.Sprintf("%.0f", cov.MeanTTR),
		})
	}
	rep.Notes = append(rep.Notes,
		"pairs = all agent pairs; edges = pairs within contact radius; reduce = pairs/edges, the candidate-space shrink the sparse engine scans.",
		"positions are uniform over a √agents-side square (constant density), derived from the seed like churn and spectrum dynamics.",
		"eligible = contact edges whose channel sets overlap and lifetimes intersect; met counts their first rendezvous within range.")
	return rep
}
