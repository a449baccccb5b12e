package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"rendezvous/internal/scenario"
	"rendezvous/internal/simulator"
)

// postForHeaders is postJSON plus the response headers, for tests that
// pin the shedding contract (Retry-After).
func postForHeaders(t *testing.T, ts *httptest.Server, path, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s response: %v", path, err)
	}
	return resp.StatusCode, resp.Header, b
}

func doDelete(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s response: %v", path, err)
	}
	return resp.StatusCode, b
}

// waitStatus polls until the job leaves the given status.
func waitStatus(t *testing.T, j *Job, leaving JobStatus) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if status, _, _ := j.Snapshot(); status != leaving {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", j.ID, leaving)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedQueueFullHTTP pins the overload contract: a full queue sheds
// with 429 and a positive integer Retry-After, and the shed counter
// lands in /v1/stats.
func TestShedQueueFullHTTP(t *testing.T) {
	withIsolatedCache(t)
	srv := NewServer(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mkBody := func(i int) string {
		b, _ := json.Marshal(drainSpec(i))
		return string(b)
	}
	// Occupy the worker, then fill the queue behind it.
	code, _, body := postForHeaders(t, ts, "/v1/jobs", mkBody(0))
	if code != http.StatusAccepted {
		t.Fatalf("first submit status = %d, body %s", code, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	first, _ := srv.Manager().Job(sub.ID)
	waitStatus(t, first, StatusQueued)
	if code, _, _ := postForHeaders(t, ts, "/v1/jobs", mkBody(1)); code != http.StatusAccepted {
		t.Fatalf("second submit status = %d, want 202", code)
	}

	code, hdr, body := postForHeaders(t, ts, "/v1/jobs", mkBody(2))
	if code != http.StatusTooManyRequests {
		t.Fatalf("full-queue submit status = %d (%s), want 429", code, body)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Fatalf("Retry-After = %q, want integer in [1, 60]", hdr.Get("Retry-After"))
	}

	_, sb := getBody(t, ts, "/v1/stats")
	var st StatsResponse
	if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatal(err)
	}
	if st.Manager.Shed != 1 {
		t.Fatalf("stats shed counter = %d, want 1", st.Manager.Shed)
	}

	// Cancel everything so drain returns promptly.
	for _, id := range []string{drainJobID(t, 0), drainJobID(t, 1)} {
		srv.Manager().Cancel(id)
	}
	if rep := srv.Drain(time.Minute); rep.Pinned != 0 {
		t.Fatalf("drain left pins: %+v", rep)
	}
}

func drainJobID(t *testing.T, i int) string {
	t.Helper()
	s := drainSpec(i)
	s.normalize()
	return s.id()
}

// TestShedDrainingHTTP pins the drain contract: a draining server says
// 503 with no Retry-After (the server is going away, not backed up).
func TestShedDrainingHTTP(t *testing.T) {
	withIsolatedCache(t)
	srv := NewServer(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Drain(0)

	b, _ := json.Marshal(testSpec(3, 512))
	code, hdr, body := postForHeaders(t, ts, "/v1/jobs", string(b))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit status = %d (%s), want 503", code, body)
	}
	if got := hdr.Get("Retry-After"); got != "" {
		t.Fatalf("draining response carries Retry-After %q", got)
	}
}

// TestShedQuotaHTTP pins the per-fleet admission quota: a second live
// job for the same fleet shape sheds with 429 + Retry-After while a
// different fleet is still admitted, and the rejection is counted.
func TestShedQuotaHTTP(t *testing.T) {
	withIsolatedCache(t)
	srv := NewServer(Config{Workers: 1, MaxPerFleet: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// drainSpec(0) and drainSpec(1) differ only in horizon: same fleet.
	b0, _ := json.Marshal(drainSpec(0))
	code, _, body := postForHeaders(t, ts, "/v1/jobs", string(b0))
	if code != http.StatusAccepted {
		t.Fatalf("first submit status = %d (%s)", code, body)
	}
	b1, _ := json.Marshal(drainSpec(1))
	code, hdr, body := postForHeaders(t, ts, "/v1/jobs", string(b1))
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit status = %d (%s), want 429", code, body)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("over-quota Retry-After = %q", hdr.Get("Retry-After"))
	}
	// A different fleet shape is unaffected by that fleet's quota.
	bOther, _ := json.Marshal(testSpec(9, 512))
	if code, _, body := postForHeaders(t, ts, "/v1/jobs", string(bOther)); code != http.StatusAccepted {
		t.Fatalf("other-fleet submit status = %d (%s), want 202", code, body)
	}

	_, sb := getBody(t, ts, "/v1/stats")
	var st StatsResponse
	if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatal(err)
	}
	if st.Manager.QuotaRejected != 1 {
		t.Fatalf("quota-rejected counter = %d, want 1", st.Manager.QuotaRejected)
	}

	srv.Manager().Cancel(drainJobID(t, 0))
	if rep := srv.Drain(time.Minute); rep.Pinned != 0 {
		t.Fatalf("drain left pins: %+v", rep)
	}
}

// TestQuotaReleasedOnCompletion pins the quota bookkeeping: once the
// live job reaches a terminal state the fleet slot frees and the same
// shape is admitted again.
func TestQuotaReleasedOnCompletion(t *testing.T) {
	cache := withIsolatedCache(t)
	mgr := NewManager(Config{Workers: 1, MaxPerFleet: 1, Cache: cache})
	t.Cleanup(func() { mgr.Drain(time.Minute) })
	first, _, err := mgr.Submit(testSpec(1, 512))
	if err != nil {
		t.Fatal(err)
	}
	first.Wait()
	if _, created, err := mgr.Submit(testSpec(1, 1024)); err != nil || !created {
		t.Fatalf("same-fleet submit after completion: created=%v err=%v", created, err)
	}
}

// TestCancelJobHTTP walks the DELETE lifecycle over HTTP: cancel a
// running job (the engine stops at a block-window boundary, no result),
// a second DELETE evicts the terminal job, and a fresh resubmission of
// the same spec then runs to completion — byte-identical to a control
// run, proving cancellation leaves no state behind.
func TestCancelJobHTTP(t *testing.T) {
	cache := withIsolatedCache(t)
	srv := NewServer(Config{Workers: 1, Cache: cache})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	b, _ := json.Marshal(drainSpec(0))
	code, _, body := postForHeaders(t, ts, "/v1/jobs", string(b))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d (%s)", code, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	job, _ := srv.Manager().Job(sub.ID)
	waitStatus(t, job, StatusQueued)

	code, db := doDelete(t, ts, "/v1/jobs/"+sub.ID)
	if code != http.StatusOK {
		t.Fatalf("DELETE status = %d (%s)", code, db)
	}
	var jr JobResponse
	if err := json.Unmarshal(db, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Status != StatusCanceled || jr.Result != nil {
		t.Fatalf("cancel response = %+v, want canceled with no result", jr)
	}
	job.Wait() // done channel closed by the cancel

	// Second DELETE evicts the terminal job; the id then 404s.
	if code, _ := doDelete(t, ts, "/v1/jobs/"+sub.ID); code != http.StatusOK {
		t.Fatalf("evicting DELETE status = %d", code)
	}
	if code, _ := getBody(t, ts, "/v1/jobs/"+sub.ID); code != http.StatusNotFound {
		t.Fatalf("GET after eviction status = %d, want 404", code)
	}
	if code, _ := doDelete(t, ts, "/v1/jobs/"+sub.ID); code != http.StatusNotFound {
		t.Fatalf("DELETE after eviction status = %d, want 404", code)
	}

	// Resubmitted after eviction, the same spec runs fresh to done —
	// and its result matches a control manager's byte for byte.
	code, _, body = postForHeaders(t, ts, "/v1/jobs", string(b))
	if code != http.StatusAccepted {
		t.Fatalf("resubmit status = %d (%s)", code, body)
	}
	rejob, _ := srv.Manager().Job(sub.ID)
	rejob.Wait()
	if status, msg, _ := rejob.Snapshot(); status != StatusDone {
		t.Fatalf("resubmitted job status = %s (%s), want done", status, msg)
	}
	ctrl := NewManager(Config{Workers: 1, Cache: cache})
	cj, _, err := ctrl.Submit(drainSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	cj.Wait()
	_, _, got := rejob.Snapshot()
	_, _, want := cj.Snapshot()
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Fatalf("post-cancel rerun differs from control:\n%s\n%s", gb, wb)
	}

	// Both managers share the cache: only after both drain may no pin
	// survive.
	ctrl.Drain(time.Minute)
	if rep := srv.Drain(time.Minute); rep.Pinned != 0 {
		t.Fatalf("drain left pins: %+v", rep)
	}
}

// TestCancelRunningJob cancels a job mid-run through the manager: the
// status settles canceled with no result, the drain census counts it,
// and no cache pin leaks.
func TestCancelRunningJob(t *testing.T) {
	cache := withIsolatedCache(t)
	mgr := NewManager(Config{Workers: 1, Cache: cache})
	job, _, err := mgr.Submit(drainSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, job, StatusQueued)
	if _, ok := mgr.Cancel(job.ID); !ok {
		t.Fatal("Cancel lost the job")
	}
	job.Wait()
	if status, msg, res := job.Snapshot(); status != StatusCanceled || res != nil || msg == "" {
		t.Fatalf("canceled job snapshot = %s %q %v", status, msg, res)
	}
	if _, ok := mgr.Cancel("junk"); ok {
		t.Fatal("Cancel invented a job")
	}
	rep := mgr.Drain(time.Minute)
	if rep.Canceled != 1 || rep.Pinned != 0 {
		t.Fatalf("drain report = %+v, want 1 canceled, 0 pinned", rep)
	}
	if st := cache.Stats(); st.Pinned != 0 || st.Refs != 0 {
		t.Fatalf("cache pins after cancel+drain: %+v", st)
	}
}

// TestJobDeadline pins per-job deadlines: a spec-level TimeoutMs cuts a
// long run off at a block-window boundary and reports canceled with a
// deadline message, while a generous server default leaves fast jobs
// untouched.
func TestJobDeadline(t *testing.T) {
	cache := withIsolatedCache(t)
	mgr := NewManager(Config{Workers: 1, JobTimeout: time.Hour, Cache: cache})
	t.Cleanup(func() { mgr.Drain(time.Minute) })

	slow := drainSpec(5)
	slow.TimeoutMs = 1
	job, _, err := mgr.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	job.Wait()
	status, msg, res := job.Snapshot()
	if status != StatusCanceled || res != nil {
		t.Fatalf("deadlined job = %s %v, want canceled with no result", status, res)
	}
	if !strings.Contains(msg, "deadline") {
		t.Fatalf("deadlined job error = %q, want a deadline message", msg)
	}

	fast, _, err := mgr.Submit(testSpec(2, 512))
	if err != nil {
		t.Fatal(err)
	}
	fast.Wait()
	if status, msg, _ := fast.Snapshot(); status != StatusDone {
		t.Fatalf("fast job under default deadline = %s (%s), want done", status, msg)
	}
}

// TestJobTTLEviction drives the sweeper's clock directly: terminal jobs
// older than the TTL are evicted (and counted), live jobs never are.
func TestJobTTLEviction(t *testing.T) {
	cache := withIsolatedCache(t)
	mgr := NewManager(Config{Workers: 1, JobTTL: time.Minute, Cache: cache})
	done, _, err := mgr.Submit(testSpec(1, 512))
	if err != nil {
		t.Fatal(err)
	}
	done.Wait()
	slow, _, err := mgr.Submit(drainSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, slow, StatusQueued)

	if n := mgr.evictExpired(time.Now()); n != 0 {
		t.Fatalf("fresh terminal job evicted: %d", n)
	}
	if n := mgr.evictExpired(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("expired sweep evicted %d, want 1 (the done job, not the running one)", n)
	}
	if _, ok := mgr.Job(done.ID); ok {
		t.Fatal("evicted job still tracked")
	}
	if _, ok := mgr.Job(slow.ID); !ok {
		t.Fatal("running job evicted by TTL sweep")
	}
	if st := mgr.Stats(); st.JobsEvicted != 1 {
		t.Fatalf("JobsEvicted = %d, want 1", st.JobsEvicted)
	}
	mgr.Cancel(slow.ID)
	if rep := mgr.Drain(time.Minute); rep.Pinned != 0 {
		t.Fatalf("drain left pins: %+v", rep)
	}
}

// TestOversizeBodyRejected pins the request-size cap: a POST body past
// MaxBodyBytes is refused with 413 on both POST routes — even when it
// is a valid request padded with whitespace, so the cap is on bytes
// read, not on what they decode to — while the same request padded to
// exactly the cap is still served.
func TestOversizeBodyRejected(t *testing.T) {
	withIsolatedCache(t)
	srv := NewServer(Config{Workers: 1})
	defer srv.Drain(5 * time.Second)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specJSON, err := json.Marshal(testSpec(11, 256))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, body string
		ok         int
	}{
		{"/v1/jobs", string(specJSON), http.StatusAccepted},
		{"/v1/schedule", `{"Alg":"ours","N":8,"Channels":[2,5,7],"Slots":32}`, http.StatusOK},
	} {
		pad := func(n int) string { return strings.Repeat(" ", n) + tc.body }
		if code, body := postJSON(t, ts, tc.path, pad(MaxBodyBytes+1-len(tc.body))); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a %d-byte body: status %d, want 413 (body %s)", tc.path, MaxBodyBytes+1, code, body)
		}
		if code, body := postJSON(t, ts, tc.path, pad(MaxBodyBytes-len(tc.body))); code != tc.ok {
			t.Fatalf("POST %s with a body of exactly %d bytes: status %d, want %d (body %s)", tc.path, MaxBodyBytes, code, tc.ok, body)
		}
	}
}

// TestJobIDCollision pins idempotent ids against hash collisions: a
// tracked job holding a different spec under a spec's id — planted
// here where a 64-bit FNV-1a collision would put it — must never be
// served for that spec. Submit reports ErrJobConflict, POST answers
// 409, and the planted job stays as it was.
func TestJobIDCollision(t *testing.T) {
	withIsolatedCache(t)
	srv := NewServer(Config{Workers: 1})
	defer srv.Drain(5 * time.Second)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	mgr := srv.Manager()

	spec, other := testSpec(21, 256), testSpec(22, 256)
	spec.normalize()
	other.normalize()
	id := spec.id()
	planted := &Job{ID: id, Spec: other, canc: &simulator.Canceler{},
		status: StatusDone, result: &JobResult{}, done: make(chan struct{})}
	close(planted.done)
	mgr.mu.Lock()
	mgr.jobs[id] = planted
	mgr.mu.Unlock()

	if j, created, err := mgr.Submit(spec); !errors.Is(err, ErrJobConflict) || j != nil || created {
		t.Fatalf("Submit of a colliding spec = (%p, %v, %v), want ErrJobConflict and no job", j, created, err)
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := postJSON(t, ts, "/v1/jobs", string(b)); code != http.StatusConflict {
		t.Fatalf("POST of a colliding spec: status %d (%s), want 409", code, body)
	}
	if j, ok := mgr.Job(id); !ok || j != planted || j.Spec.canonical() != other.canonical() {
		t.Fatalf("the job holding id %s changed: %+v", id, j)
	}
}

// TestFleetKey pins the session and quota key: specs that differ only
// in horizon or per-request knobs share one fleet key, and the key is
// the fleet spec's canonical JSON, so distinct fleet shapes never
// share one.
func TestFleetKey(t *testing.T) {
	a, b := testSpec(5, 256), testSpec(5, 4096)
	b.EngineWorkers, b.IncludeMeetings, b.TimeoutMs = 3, false, 50
	a.normalize()
	b.normalize()
	if a.fleetKey() != b.fleetKey() {
		t.Fatalf("specs differing only in horizon and knobs got fleet keys\n%s\n%s", a.fleetKey(), b.fleetKey())
	}
	c := testSpec(6, 256)
	c.normalize()
	if c.fleetKey() == a.fleetKey() {
		t.Fatal("specs with different seeds share a fleet key")
	}
	var fleet JobSpec
	if err := json.Unmarshal([]byte(a.fleetKey()), &fleet); err != nil || fleet.Scenario.Seed != 5 || fleet.Scenario.Horizon != 0 {
		t.Fatalf("fleet key %q is not the fleet spec's JSON (err %v)", a.fleetKey(), err)
	}
}

// TestEngineWorkersClamped pins the engine worker clamp: EngineWorkers
// is accepted as posted (it is part of the job id), but a run never
// takes more than GOMAXPROCS engine workers, each of which allocates
// its own scan scratch. A job asking for a million workers on a
// 256-agent fleet must allocate no more than a few MiB beyond the same
// job at GOMAXPROCS workers (unclamped, the posting scan this clamp
// was written for gave each of its 256 windows a worker and a hit
// array: about 70 MiB more), and its result bytes must equal the
// one-worker job's.
func TestEngineWorkersClamped(t *testing.T) {
	cache := withIsolatedCache(t)
	mgr := NewManager(Config{Workers: 1, Cache: cache})
	t.Cleanup(func() { mgr.Drain(time.Minute) })
	spec := JobSpec{Alg: "ours", Scenario: scenario.Scenario{
		N: 128, Agents: 256, K: 4, Seed: 5, Horizon: 1 << 16,
	}}
	run := func(workers int) (result []byte, alloc uint64) {
		t.Helper()
		s := spec
		s.EngineWorkers = workers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		j, created, err := mgr.Submit(s)
		if err != nil || !created {
			t.Fatalf("submit(workers=%d): created=%v err=%v", workers, created, err)
		}
		j.Wait()
		runtime.ReadMemStats(&after)
		status, _, res := j.Snapshot()
		if status != StatusDone {
			t.Fatalf("workers=%d: job ended %s", workers, status)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b, after.TotalAlloc - before.TotalAlloc
	}
	// The one-worker job opens the fleet's session; the others reuse it,
	// so their allocations are the runs' own. GOMAXPROCS+1 keeps the
	// second spec distinct from the first when GOMAXPROCS is 1; the
	// clamp runs it at GOMAXPROCS.
	want, _ := run(1)
	_, atCores := run(runtime.GOMAXPROCS(0) + 1)
	got, atMillion := run(1_000_000)
	if !bytes.Equal(got, want) {
		t.Fatalf("EngineWorkers=1000000 changed the result:\n got %s\nwant %s", got, want)
	}
	const slack = 4 << 20
	if atMillion > atCores+slack {
		t.Fatalf("EngineWorkers=1000000 allocated %.1f MiB, the GOMAXPROCS job %.1f MiB: more than %d MiB over",
			float64(atMillion)/(1<<20), float64(atCores)/(1<<20), slack>>20)
	}
}
