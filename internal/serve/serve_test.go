package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rendezvous/internal/scenario"
	"rendezvous/internal/simulator"
	"rendezvous/internal/tablecache"
)

// withIsolatedCache swaps the process table cache for a private one so
// pin/hit assertions see only this test's traffic, and returns it. The
// Config handed to managers must carry the same cache.
func withIsolatedCache(t *testing.T) *tablecache.Cache {
	t.Helper()
	c := tablecache.New(32 << 20)
	prev := simulator.SetTableCache(c)
	t.Cleanup(func() { simulator.SetTableCache(prev) })
	return c
}

func testSpec(seed uint64, horizon int) JobSpec {
	return JobSpec{
		Alg: "ours",
		Scenario: scenario.Scenario{
			N: 12, Agents: 8, K: 4, Seed: seed, Horizon: horizon,
			Churn: scenario.Churn{WakeSpread: 64},
		},
		IncludeMeetings: true,
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read %s response: %v", path, err)
	}
	return resp.StatusCode, buf.Bytes()
}

func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read %s response: %v", path, err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestScheduleEndpoint(t *testing.T) {
	withIsolatedCache(t)
	srv := NewServer(Config{Workers: 1})
	defer srv.Drain(time.Second)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := `{"Alg":"ours","N":8,"Channels":[2,5,7],"Slots":32}`
	code, body := postJSON(t, ts, "/v1/schedule", req)
	if code != http.StatusOK {
		t.Fatalf("schedule status = %d, body %s", code, body)
	}
	var resp ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.Period <= 0 || len(resp.Hops) != 32 {
		t.Fatalf("bad schedule response: %+v", resp)
	}
	for i, ch := range resp.Hops {
		if ch != 2 && ch != 5 && ch != 7 {
			t.Fatalf("hop %d = %d, outside the channel set", i, ch)
		}
	}
	// Byte-determinism: the same request replays to the same bytes.
	_, body2 := postJSON(t, ts, "/v1/schedule", req)
	if !bytes.Equal(body, body2) {
		t.Fatalf("schedule response not byte-stable:\n%s\n%s", body, body2)
	}

	for _, bad := range []string{
		`{"N":0,"Channels":[1]}`,                    // bad universe
		`{"Alg":"nope","N":8,"Channels":[1]}`,       // unknown algorithm
		`{"N":8,"Channels":[1],"Slots":-1}`,         // negative slots
		`{"N":8,"Channels":[1],"Slots":1000000000}`, // over MaxScheduleSlots
		`{"N":8,"Channels":[9]}`,                    // channel outside universe
		`{"N":8,"Channels":[1],"Bogus":true}`,       // unknown field
		`{`,                                         // malformed JSON
	} {
		if code, body := postJSON(t, ts, "/v1/schedule", bad); code != http.StatusBadRequest {
			t.Errorf("schedule(%s) status = %d (%s), want 400", bad, code, body)
		}
	}
}

func TestJobLifecycleHTTP(t *testing.T) {
	withIsolatedCache(t)
	srv := NewServer(Config{Workers: 2})
	defer srv.Drain(time.Second)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec, _ := json.Marshal(testSpec(41, 4096))
	code, body := postJSON(t, ts, "/v1/jobs", string(spec))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %s", code, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("unmarshal submit: %v", err)
	}
	job, ok := srv.Manager().Job(sub.ID)
	if !ok {
		t.Fatalf("submitted job %q not tracked", sub.ID)
	}
	job.Wait()

	code, body = getBody(t, ts, "/v1/jobs/"+sub.ID)
	if code != http.StatusOK {
		t.Fatalf("get job status = %d", code)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("unmarshal job: %v", err)
	}
	if jr.Status != StatusDone || jr.Result == nil {
		t.Fatalf("job response = %+v, want done with result", jr)
	}
	if jr.Result.Coverage.EligiblePairs == 0 || jr.Result.MetFrac <= 0 {
		t.Fatalf("degenerate result: %+v", jr.Result)
	}
	if len(jr.Result.Meetings) == 0 {
		t.Fatalf("IncludeMeetings spec returned no meetings")
	}

	// Idempotent resubmission: same spec, same job, 200 not 202.
	code, body = postJSON(t, ts, "/v1/jobs", string(spec))
	if code != http.StatusOK {
		t.Fatalf("resubmit status = %d, body %s", code, body)
	}
	var sub2 SubmitResponse
	if err := json.Unmarshal(body, &sub2); err != nil {
		t.Fatalf("unmarshal resubmit: %v", err)
	}
	if sub2.ID != sub.ID || sub2.Status != StatusDone {
		t.Fatalf("resubmit = %+v, want same id %q done", sub2, sub.ID)
	}

	if code, _ := getBody(t, ts, "/v1/jobs/jdeadbeefdeadbeef"); code != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", code)
	}
	if code, body := postJSON(t, ts, "/v1/jobs", `{"Scenario":{"N":0}}`); code != http.StatusBadRequest {
		t.Fatalf("invalid spec status = %d (%s), want 400", code, body)
	}
}

// TestJobResultByteIdentical is the acceptance check: the same job spec
// produces byte-identical response JSON on a 1-worker and an 8-worker
// server, fresh or session-reused, with any engine worker count.
func TestJobResultByteIdentical(t *testing.T) {
	withIsolatedCache(t)
	specs := []JobSpec{
		testSpec(1, 4096), testSpec(2, 4096), testSpec(1, 1024), testSpec(1, 8192),
	}
	specs[3].EngineWorkers = 4 // resource knob; must not change bytes

	bodies := make(map[int][][]byte) // worker count -> per-spec body
	for _, workers := range []int{1, 8} {
		srv := NewServer(Config{Workers: workers})
		ts := httptest.NewServer(srv.Handler())
		for _, spec := range specs {
			b, _ := json.Marshal(spec)
			code, body := postJSON(t, ts, "/v1/jobs", string(b))
			if code != http.StatusAccepted {
				t.Fatalf("workers=%d submit status = %d, body %s", workers, code, body)
			}
			var sub SubmitResponse
			if err := json.Unmarshal(body, &sub); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			job, _ := srv.Manager().Job(sub.ID)
			job.Wait()
			_, jb := getBody(t, ts, "/v1/jobs/"+sub.ID)
			bodies[workers] = append(bodies[workers], jb)
		}
		ts.Close()
		if rep := srv.Drain(time.Second); rep.Pinned != 0 {
			t.Fatalf("workers=%d drain left %d pinned entries", workers, rep.Pinned)
		}
	}
	for i := range specs {
		if !bytes.Equal(bodies[1][i], bodies[8][i]) {
			t.Errorf("spec %d differs between worker counts:\n w1: %s\n w8: %s",
				i, bodies[1][i], bodies[8][i])
		}
	}
	// EngineWorkers=4 and EngineWorkers=1 are distinct jobs (distinct
	// ids) over the same scenario: their Results must match exactly.
	var a, b JobResponse
	if err := json.Unmarshal(bodies[1][3], &a); err != nil {
		t.Fatal(err)
	}
	spec1 := specs[3]
	spec1.EngineWorkers = 1
	srv := NewServer(Config{Workers: 1})
	defer srv.Drain(time.Second)
	job, _, err := srv.Manager().Submit(spec1)
	if err != nil {
		t.Fatal(err)
	}
	job.Wait()
	_, _, res := job.Snapshot()
	ra, _ := json.Marshal(a.Result)
	rb, _ := json.Marshal(res)
	if !bytes.Equal(ra, rb) {
		b.Result = res
		t.Fatalf("EngineWorkers changed the result:\n 4: %s\n 1: %s", ra, rb)
	}
}

// TestSessionReuseSingleWorker pins the pool arithmetic: 24 jobs over 3
// fleet shapes on one worker open exactly 3 sessions and reuse 21, and
// the reused runs match fresh single-shot runs byte for byte.
func TestSessionReuseSingleWorker(t *testing.T) {
	cache := withIsolatedCache(t)
	mgr := NewManager(Config{Workers: 1, Cache: cache})
	t.Cleanup(func() { mgr.Drain(time.Minute) })
	var jobs []*Job
	for h := 0; h < 8; h++ {
		for seed := uint64(1); seed <= 3; seed++ {
			// Shrink then grow: exercises Result.reset at both ends.
			horizon := []int{4096, 512, 2048, 1024, 8192, 256, 3072, 16384}[h]
			job, created, err := mgr.Submit(testSpec(seed, horizon))
			if err != nil || !created {
				t.Fatalf("submit(seed=%d h=%d): created=%v err=%v", seed, horizon, created, err)
			}
			jobs = append(jobs, job)
		}
	}
	for _, j := range jobs {
		j.Wait()
	}
	st := mgr.Stats()
	if st.SessionsOpened != 3 || st.SessionsReused != 21 {
		t.Fatalf("sessions opened/reused = %d/%d, want 3/21", st.SessionsOpened, st.SessionsReused)
	}

	// Every pooled result must equal a fresh manager's (no session
	// carry-over between horizons).
	fresh := NewManager(Config{Workers: 4, Cache: cache})
	t.Cleanup(func() { fresh.Drain(time.Minute) })
	for _, j := range jobs {
		fj, _, err := fresh.Submit(j.Spec)
		if err != nil {
			t.Fatal(err)
		}
		fj.Wait()
		_, _, got := j.Snapshot()
		_, _, want := fj.Snapshot()
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("job %s (h=%d): pooled result differs from fresh:\n%s\n%s",
				j.ID, j.Spec.Scenario.Horizon, gb, wb)
		}
	}
	if rep := mgr.Drain(time.Minute); rep.Done != 24 || rep.Aborted != 0 {
		t.Fatalf("drain report = %+v, want 24 done", rep)
	}
	if rep := fresh.Drain(time.Minute); rep.Pinned != 0 {
		t.Fatalf("pins survive drain: %+v", rep)
	}
	if st := cache.Stats(); st.Pinned != 0 || st.Refs != 0 {
		t.Fatalf("cache pins after both drains: %+v", st)
	}
}

// TestManagerConcurrentSubmitters is the race-mode pool test: several
// goroutines hammer Submit with overlapping specs while 8 workers drain
// the queue through their private session pools.
func TestManagerConcurrentSubmitters(t *testing.T) {
	cache := withIsolatedCache(t)
	mgr := NewManager(Config{Workers: 8, QueueDepth: 512, Cache: cache})
	t.Cleanup(func() { mgr.Drain(time.Minute) })
	const submitters = 4
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				spec := testSpec(uint64(1+i%3), 256*(1+i%5))
				job, _, err := mgr.Submit(spec)
				if err != nil {
					errs <- fmt.Errorf("submit %d: %w", i, err)
					return
				}
				job.Wait()
				if status, msg, res := job.Snapshot(); status != StatusDone || res == nil {
					errs <- fmt.Errorf("job %s: status %s (%s)", job.ID, status, msg)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All submitters raced over 15 distinct specs; idempotency means 15
	// tracked jobs, every one done.
	st := mgr.Stats()
	if st.Jobs.Done != 15 || st.Jobs.Failed != 0 {
		t.Fatalf("job census = %+v, want 15 done", st.Jobs)
	}
	rep := mgr.Drain(time.Second)
	if rep.Done != 15 || rep.Aborted != 0 || rep.Pinned != 0 {
		t.Fatalf("drain report = %+v, want 15 done, 0 aborted, 0 pinned", rep)
	}
}

// drainSpec is slow enough (an environment scan over a big fleet) that
// a zero-deadline drain catches jobs still queued.
func drainSpec(i int) JobSpec {
	return JobSpec{
		Scenario: scenario.Scenario{
			N: 64, Agents: 200, K: 4, Seed: 99, Horizon: 8192 + i,
			PU: scenario.PrimaryUsers{Count: 8, Window: 64, OnFrac: 0.5},
		},
	}
}

// TestDrainAbortsQueued: with one worker and an immediate deadline,
// in-flight work completes, the queued remainder is reported aborted,
// and no cache pin survives the workers' exit.
func TestDrainAbortsQueued(t *testing.T) {
	cache := withIsolatedCache(t)
	mgr := NewManager(Config{Workers: 1, Cache: cache})
	t.Cleanup(func() { mgr.Drain(0) })
	var jobs []*Job
	for i := 0; i < 8; i++ {
		job, _, err := mgr.Submit(drainSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	rep := mgr.Drain(0)
	if got := rep.Done + rep.Failed + rep.Aborted; got != len(jobs) {
		t.Fatalf("drain accounted for %d of %d jobs: %+v", got, len(jobs), rep)
	}
	if rep.Aborted < 5 {
		t.Fatalf("immediate drain aborted only %d of 8 queued jobs: %+v", rep.Aborted, rep)
	}
	if rep.Failed != 0 {
		t.Fatalf("drain failed jobs: %+v", rep)
	}
	if rep.Pinned != 0 {
		t.Fatalf("drain left %d pinned cache entries", rep.Pinned)
	}
	for _, j := range jobs {
		status, msg, _ := j.Snapshot()
		switch status {
		case StatusDone, StatusAborted:
		default:
			t.Fatalf("job %s left in status %s (%s)", j.ID, status, msg)
		}
		if status == StatusAborted && msg == "" {
			t.Fatalf("aborted job %s carries no explanation", j.ID)
		}
	}
	if st := cache.Stats(); st.Pinned != 0 || st.Refs != 0 {
		t.Fatalf("cache pins after drain: %+v", st)
	}
	// Post-drain submissions are refused, idempotent lookups still work.
	if _, _, err := mgr.Submit(testSpec(7, 512)); err != ErrDraining {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
	if j, _, err := mgr.Submit(jobs[0].Spec); err != nil || j != jobs[0] {
		t.Fatalf("post-drain resubmit of known spec = %v, %v", j, err)
	}
}

// TestDrainFinishesQueuedUnderDeadline: a generous deadline lets every
// queued job run to completion before the workers exit.
func TestDrainFinishesQueuedUnderDeadline(t *testing.T) {
	cache := withIsolatedCache(t)
	mgr := NewManager(Config{Workers: 2, Cache: cache})
	t.Cleanup(func() { mgr.Drain(time.Minute) })
	for i := 0; i < 6; i++ {
		if _, _, err := mgr.Submit(testSpec(uint64(i%2), 512+i)); err != nil {
			t.Fatal(err)
		}
	}
	rep := mgr.Drain(time.Minute)
	if rep.Done != 6 || rep.Aborted != 0 || rep.Pinned != 0 {
		t.Fatalf("drain report = %+v, want 6 done, 0 aborted, 0 pinned", rep)
	}
}

func TestQueueFullRejects(t *testing.T) {
	cache := withIsolatedCache(t)
	mgr := NewManager(Config{Workers: 1, QueueDepth: 1, Cache: cache})
	defer mgr.Drain(time.Minute)
	first, _, err := mgr.Submit(drainSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pull the job off the queue.
	for {
		if status, _, _ := first.Snapshot(); status != StatusQueued {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := mgr.Submit(drainSpec(1)); err != nil {
		t.Fatalf("queueing one job behind a busy worker: %v", err)
	}
	if _, _, err := mgr.Submit(drainSpec(2)); err != ErrQueueFull {
		t.Fatalf("submit to full queue = %v, want ErrQueueFull", err)
	}
}

func TestStatsEndpoint(t *testing.T) {
	withIsolatedCache(t)
	srv := NewServer(Config{Workers: 2})
	defer srv.Drain(time.Second)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A horizon past twice the fleet's 26,880-slot period, so the job
	// compiles its schedules through the table cache (shorter pairwise
	// jobs read schedules only and never touch it).
	spec, _ := json.Marshal(testSpec(5, 1<<16))
	_, body := postJSON(t, ts, "/v1/jobs", string(spec))
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	job, _ := srv.Manager().Job(sub.ID)
	job.Wait()
	postJSON(t, ts, "/v1/schedule", `{"N":0}`) // one 400 for the error counter

	code, body := getBody(t, ts, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unmarshal stats: %v", err)
	}
	if st.Cache.Entries == 0 || st.Cache.Misses == 0 {
		t.Fatalf("cache stats empty after a job: %+v", st.Cache)
	}
	if st.Manager.Jobs.Done != 1 || st.Manager.Workers != 2 {
		t.Fatalf("manager stats = %+v", st.Manager)
	}
	if rs := st.Routes["POST /v1/jobs"]; rs.Count != 1 {
		t.Fatalf("jobs route count = %+v", rs)
	}
	if rs := st.Routes["POST /v1/schedule"]; rs.Count != 1 || rs.Errors != 1 {
		t.Fatalf("schedule route stats = %+v, want 1 count / 1 error", rs)
	}
	if code, _ := getBody(t, ts, "/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
}
