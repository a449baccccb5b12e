package serve

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rendezvous/internal/scenario"
	"rendezvous/internal/simulator"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestGoldenWarmHorizons pins the bytes of 1,024-agent dense jobs re-run
// on one warm session across horizons. A one-worker manager runs a
// 1,024-agent fleet shaped like the job benchmark's net1k-warm (N 128,
// K 4, its churn and primary users) at horizons 8,192, 1,500, 4,096 and
// 8,192, in that order, on one pooled session: the 1,500 run lies below
// the fleet's last wake, where pair eligibility differs, and the others
// past it, where the engine reuses one meetable count. Each JobResult's
// JSON is hashed into testdata/warm-horizons.golden next to its
// Coverage; the file was generated on the time-sharded posting scan
// that served such fleets before every run took the pairwise scan, and
// before the engine cached eligibility past the last wake and ordered
// its ids by hop set. Regenerate intentional changes with `make golden`
// and review the diff.
//
// A replay of the same horizons on an in-test session of the same fleet
// must record the pairwise route on every run and reproduce each job's
// Coverage.
func TestGoldenWarmHorizons(t *testing.T) {
	sc := scenario.Scenario{
		N: 128, Agents: 1024, K: 4, Seed: 7, Horizon: 8192,
		Churn: scenario.Churn{WakeSpread: 2000, LeaveFrac: 0.25, MinLife: 4096, MaxLife: 16384},
		PU:    scenario.PrimaryUsers{Count: 8, Window: 1024, OnFrac: 0.5},
	}
	horizons := []int{8192, 1500, 4096, 8192}
	mgr := NewManager(Config{Workers: 1})
	defer mgr.Drain(time.Minute)
	jobs := make([]*Job, len(horizons))
	for i, h := range horizons {
		spec := JobSpec{Alg: "ours", Scenario: sc, IncludeMeetings: true}
		spec.Scenario.Horizon = h
		// A distinct deadline keeps the repeated horizon a new job on the
		// same fleet session: the fleet key ignores it.
		spec.TimeoutMs = 3600_000 + i
		job, created, err := mgr.Submit(spec)
		if err != nil || !created {
			t.Fatalf("submit horizon %d: created=%v err=%v", h, created, err)
		}
		jobs[i] = job
	}
	var sb strings.Builder
	results := make([]*JobResult, len(jobs))
	for i, job := range jobs {
		job.Wait()
		status, msg, res := job.Snapshot()
		if status != StatusDone {
			t.Fatalf("horizon %d: job %s (%s)", horizons[i], status, msg)
		}
		body, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		cov, err := json.Marshal(res.Coverage)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "horizon=%d sha256=%x coverage=%s\n", horizons[i], sha256.Sum256(body), cov)
		results[i] = res
	}
	if st := mgr.Stats(); st.SessionsOpened != 1 || st.SessionsReused != int64(len(horizons)-1) {
		t.Fatalf("sessions opened %d, reused %d: want every job on one session", st.SessionsOpened, st.SessionsReused)
	}

	path := filepath.Join("testdata", "warm-horizons.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden: %v\n(run `make golden` and commit the result)", err)
		}
		if sb.String() != string(want) {
			t.Errorf("job results diverged from %s:\n--- got ---\n%s--- want ---\n%s", path, sb.String(), want)
		}
	}

	build, err := scenario.BuilderFor("ours", sc.N, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := sc.Open(build)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	sess := fl.Eng.Session()
	for i, h := range horizons {
		cov := fl.Summarize(sess.RunParallelEnv(h, 1, fl.Env), h)
		if r := fl.Eng.LastRoute(); r != simulator.RoutePairwise {
			t.Errorf("horizon %d: routed %v with %d eligible pairs, want pairwise", h, r, cov.EligiblePairs)
		}
		if cov != results[i].Coverage {
			t.Errorf("horizon %d: replay coverage %+v, job %+v", h, cov, results[i].Coverage)
		}
	}
}
