// Package serve is the HTTP surface of rvserve, the long-running
// rendezvous daemon: schedule generation (POST /v1/schedule) and
// simulation jobs (POST /v1/jobs, GET /v1/jobs/{id}) over JSON, with a
// bounded job queue, a fixed worker pool of per-goroutine session
// pools, graceful drain, and a /v1/stats endpoint surfacing table-cache
// counters, queue depth, and per-route latency.
//
// Determinism contract: every schedule response and every completed
// job's Result are pure functions of the request — byte-identical JSON
// for the same request at any worker count, queue schedule, or cache
// budget. Envelope fields that track execution (job Status before
// completion, /v1/stats) are the documented exceptions.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"rendezvous/internal/scenario"
	"rendezvous/internal/tablecache"
)

// Server wires the manager into an http.Handler.
type Server struct {
	cfg Config
	mgr *Manager
	mux *http.ServeMux

	latMu sync.Mutex
	lat   map[string]*latRecorder // route pattern -> recorder
}

// NewServer starts the worker pool and registers the routes.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		mgr: NewManager(cfg),
		mux: http.NewServeMux(),
		lat: make(map[string]*latRecorder),
	}
	s.handle("POST /v1/schedule", s.handleSchedule)
	s.handle("POST /v1/jobs", s.handleSubmit)
	s.handle("GET /v1/jobs/{id}", s.handleJob)
	s.handle("DELETE /v1/jobs/{id}", s.handleCancel)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("GET /v1/healthz", s.handleHealthz)
	return s
}

// Handler returns the server's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Manager exposes the job manager (drain, tests).
func (s *Server) Manager() *Manager { return s.mgr }

// Drain is Manager.Drain; see its contract.
func (s *Server) Drain(timeout time.Duration) DrainReport { return s.mgr.Drain(timeout) }

// handle registers a routed handler wrapped with latency recording.
func (s *Server) handle(pattern string, h func(http.ResponseWriter, *http.Request)) {
	rec := &latRecorder{}
	s.latMu.Lock()
	s.lat[pattern] = rec
	s.latMu.Unlock()
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		h(cw, r)
		rec.observe(time.Since(start), cw.code >= 400)
	})
}

// codeWriter captures the status code for the latency recorder.
type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// writeJSON writes a JSON response body. Encoding is canonical
// (encoding/json struct order), which is what the byte-determinism
// contract rides on.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errBody struct {
	Error string
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errBody{Error: err.Error()})
}

// MaxBodyBytes caps a POST body. Request bodies are a channel set or a
// scenario spec, normally well under a kilobyte; 1 MiB still leaves
// room for a channel list of over 100,000 entries. A longer body is
// refused with 413 before it is buffered.
const MaxBodyBytes = 1 << 20

// decodeStrict decodes a JSON request body of at most MaxBodyBytes,
// rejecting unknown fields so spec typos fail loudly instead of
// silently meaning the default. It returns the status to answer a
// failure with: 413 for an oversize body, 400 otherwise.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", tooBig.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("decode request: %w", err)
	}
	return 0, nil
}

// ScheduleRequest asks for one agent's hop sequence.
type ScheduleRequest struct {
	// Alg names the builder (ours, general, crseq, crseq-rand,
	// jumpstay, random); defaults to ours.
	Alg string
	// N is the channel universe size [1, N].
	N int
	// Channels is the agent's available channel set.
	Channels []int
	// Seed feeds randomized algorithms; irrelevant to deterministic
	// ones but part of the response identity either way.
	Seed uint64
	// Slots is the hop-table length to return; 0 means
	// min(period, 256), capped by the server's MaxScheduleSlots.
	Slots int
}

// ScheduleResponse is the deterministic reply: the request echoed plus
// the schedule's period and its first Slots hops.
type ScheduleResponse struct {
	Alg      string
	N        int
	Channels []int
	Seed     uint64
	Period   int
	Slots    int
	Hops     []int
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req ScheduleRequest
	if code, err := decodeStrict(w, r, &req); err != nil {
		writeErr(w, code, err)
		return
	}
	if req.Alg == "" {
		req.Alg = "ours"
	}
	if req.N < 1 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("universe size N=%d must be positive", req.N))
		return
	}
	if req.Slots < 0 || req.Slots > s.cfg.MaxScheduleSlots {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("slots %d out of range [0, %d]", req.Slots, s.cfg.MaxScheduleSlots))
		return
	}
	build, err := scenario.BuilderFor(req.Alg, req.N, req.Seed)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sched, err := build(req.Channels, 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	period := sched.Period()
	slots := req.Slots
	if slots == 0 {
		slots = min(period, 256)
	}
	hops := make([]int, slots)
	for t := range hops {
		hops[t] = sched.Channel(t)
	}
	writeJSON(w, http.StatusOK, ScheduleResponse{
		Alg: req.Alg, N: req.N, Channels: req.Channels, Seed: req.Seed,
		Period: period, Slots: slots, Hops: hops,
	})
}

// SubmitResponse acknowledges a job submission. Status reflects the
// job's state at response time (a resubmitted spec may already be
// running or done).
type SubmitResponse struct {
	ID     string
	Status JobStatus
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if code, err := decodeStrict(w, r, &spec); err != nil {
		writeErr(w, code, err)
		return
	}
	job, created, err := s.mgr.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQuotaExceeded):
		// Overload, not failure: shed with 429 and tell the client when
		// to come back. Draining stays 503 (the server is going away,
		// retrying here won't help).
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrJobConflict):
		writeErr(w, http.StatusConflict, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	status, _, _ := job.Snapshot()
	code := http.StatusOK
	if created {
		code = http.StatusAccepted
	}
	writeJSON(w, code, SubmitResponse{ID: job.ID, Status: status})
}

// JobResponse is a job's state. For a done job, Result is
// byte-deterministic; Status/Error are the envelope.
type JobResponse struct {
	ID     string
	Status JobStatus
	Error  string     `json:",omitempty"`
	Result *JobResult `json:",omitempty"`
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.mgr.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	status, errMsg, result := job.Snapshot()
	writeJSON(w, http.StatusOK, JobResponse{ID: job.ID, Status: status, Error: errMsg, Result: result})
}

// retryAfterSeconds derives a Retry-After hint from queue pressure: a
// full queue clears at roughly depth/workers job-durations, clamped to
// [1s, 60s] so clients always get a sane, bounded hint.
func (s *Server) retryAfterSeconds() int {
	st := s.mgr.Stats()
	secs := 1 + st.QueueDepth/max(1, st.Workers)
	return min(secs, 60)
}

// handleCancel is DELETE /v1/jobs/{id}: cancel a queued or running job
// (the engine stops at its next block-window boundary), or evict an
// already-finished one. The response is the job's post-cancel state.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.mgr.Cancel(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	status, errMsg, result := job.Snapshot()
	writeJSON(w, http.StatusOK, JobResponse{ID: job.ID, Status: status, Error: errMsg, Result: result})
}

// RouteStats is one route's latency census since server start.
type RouteStats struct {
	Count   int64
	Errors  int64
	P50Us   int64
	P99Us   int64
	MaxUs   int64
	TotalUs int64
}

// StatsResponse is the /v1/stats body. It is observability, not part
// of the determinism contract.
type StatsResponse struct {
	Cache   tablecache.Stats
	Manager ManagerStats
	Routes  map[string]RouteStats
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Cache:   s.cfg.Cache.Stats(),
		Manager: s.mgr.Stats(),
		Routes:  make(map[string]RouteStats),
	}
	s.latMu.Lock()
	for pattern, rec := range s.lat {
		resp.Routes[pattern] = rec.stats()
	}
	s.latMu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct{ OK bool }{true})
}

// latBounds are the latency histogram bucket upper bounds; the final
// implicit bucket is unbounded. Log-spaced from 50µs to 5s — request
// handling spans schedule lookups (µs) to giant-fleet job polls (ms).
const numLatBounds = 16

var latBounds = [numLatBounds]time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond,
	20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
	500 * time.Millisecond, time.Second, 2 * time.Second, 5 * time.Second,
}

// latRecorder is a fixed-bucket latency histogram plus extrema; cheap
// enough to sit on every request.
type latRecorder struct {
	mu      sync.Mutex
	count   int64
	errors  int64
	total   time.Duration
	max     time.Duration
	buckets [numLatBounds + 1]int64
}

func (l *latRecorder) observe(d time.Duration, isErr bool) {
	i := sort.Search(len(latBounds), func(i int) bool { return d <= latBounds[i] })
	l.mu.Lock()
	l.count++
	if isErr {
		l.errors++
	}
	l.total += d
	if d > l.max {
		l.max = d
	}
	l.buckets[i]++
	l.mu.Unlock()
}

// quantileLocked returns the upper bound of the bucket holding the
// q-quantile observation — an upper estimate within one bucket width.
func (l *latRecorder) quantileLocked(q float64) time.Duration {
	if l.count == 0 {
		return 0
	}
	rank := int64(q * float64(l.count-1))
	var seen int64
	for i, c := range l.buckets {
		seen += c
		if seen > rank {
			if i < len(latBounds) {
				return latBounds[i]
			}
			return l.max
		}
	}
	return l.max
}

func (l *latRecorder) stats() RouteStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return RouteStats{
		Count:   l.count,
		Errors:  l.errors,
		P50Us:   l.quantileLocked(0.50).Microseconds(),
		P99Us:   l.quantileLocked(0.99).Microseconds(),
		MaxUs:   l.max.Microseconds(),
		TotalUs: l.total.Microseconds(),
	}
}
