package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rendezvous/internal/scenario"
	"rendezvous/internal/simulator"
	"rendezvous/internal/tablecache"
)

// The job manager: a bounded queue in front of a fixed worker pool,
// where each worker goroutine owns a private pool of engine sessions
// keyed by fleet shape. Sessions are documented not concurrent-safe
// (simulator.Session), so worker-goroutine ownership is the
// correctness boundary: a session is only ever driven by the worker
// that opened it, while the engines underneath still share every hop
// table through the process-wide table cache. Job results are pure
// functions of the job spec — scenarios derive everything from their
// seeds — so the same spec returns byte-identical result JSON at any
// worker count, on any queue schedule.

// JobStatus is a job's lifecycle state.
type JobStatus string

const (
	StatusQueued  JobStatus = "queued"
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	StatusFailed  JobStatus = "failed"
	// StatusAborted marks a job that was still queued when the drain
	// deadline passed: reported, never silently dropped.
	StatusAborted JobStatus = "aborted"
	// StatusCanceled marks a job stopped by DELETE /v1/jobs/{id} or its
	// per-job deadline: the engine run halts at its next block-window
	// boundary (simulator.Canceler) and the partial result is discarded.
	StatusCanceled JobStatus = "canceled"
)

// terminalStatus reports whether a status is final.
func terminalStatus(s JobStatus) bool {
	switch s {
	case StatusDone, StatusFailed, StatusAborted, StatusCanceled:
		return true
	}
	return false
}

// JobSpec is one simulation request: a scenario (the fleet, its
// dynamics, and the horizon — everything derived from Scenario.Seed)
// plus the algorithm to build schedules with. JSON field names are the
// Go names (e.g. {"Alg":"ours","Scenario":{"N":64,...}}).
type JobSpec struct {
	// Alg names the schedule builder: ours, general, crseq,
	// crseq-rand, jumpstay, random. Defaults to ours.
	Alg      string
	Scenario scenario.Scenario
	// EngineWorkers bounds the engine's per-run worker count. Results
	// are byte-identical at every value (the engine's decompositions
	// are exact), so this is purely a resource knob; it defaults to 1
	// because the job pool itself saturates the cores. A run never
	// takes more than GOMAXPROCS workers, whatever the spec asks.
	EngineWorkers int
	// IncludeMeetings adds the first MaxMeetings meetings (canonical
	// slot-then-name order) to the result.
	IncludeMeetings bool
	// TimeoutMs is the per-job deadline in milliseconds; 0 inherits the
	// server's Config.JobTimeout. A job past its deadline is canceled at
	// the engine's next block-window boundary and reported canceled —
	// the deadline never yields a partial result. omitempty keeps job
	// ids stable for specs that never set it.
	TimeoutMs int `json:",omitempty"`
}

// MaxMeetings caps the meetings list in a job result.
const MaxMeetings = 1000

// normalize applies spec defaults in place. Submit normalizes before
// hashing, so specs differing only in elided defaults are the same job.
func (s *JobSpec) normalize() {
	if s.Alg == "" {
		s.Alg = "ours"
	}
	if s.EngineWorkers <= 0 {
		s.EngineWorkers = 1
	}
}

// validate rejects specs the workers could not run.
func (s *JobSpec) validate() error {
	if err := s.Scenario.Validate(); err != nil {
		return err
	}
	if _, err := scenario.BuilderFor(s.Alg, s.Scenario.N, s.Scenario.Seed); err != nil {
		return err
	}
	return nil
}

// canonical returns the spec's canonical JSON: the bytes its id hashes
// and the identity an id hit is checked against.
func (s JobSpec) canonical() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Marshal of these plain structs cannot fail; keep the
		// signature infallible.
		panic(fmt.Sprintf("serve: marshal job spec: %v", err))
	}
	return string(b)
}

// id derives the job's identity from the normalized spec: an FNV-1a
// hash of its canonical JSON. Identity is content, not arrival — an
// identical resubmission lands on the same job (idempotent POST), and
// ids are reproducible across server restarts and worker counts,
// which is what keeps the API byte-deterministic under load. A 64-bit
// hash can collide, so Submit confirms an id hit against the stored
// spec's canonical JSON.
func (s JobSpec) id() string { return jobID(s.canonical()) }

// jobID hashes a canonical spec into its job id.
func jobID(canonical string) string {
	h := fnv.New64a()
	h.Write([]byte(canonical))
	return fmt.Sprintf("j%016x", h.Sum64())
}

// fleetKey identifies the reusable fleet shape behind a spec: the
// canonical JSON of every field except the horizon and per-request
// knobs. Fleet derivation and environment dynamics are
// horizon-independent, so jobs that differ only in horizon share one
// engine and session — exactly the reuse path the session layer was
// built for. The key is the JSON itself, not a hash of it, so two
// fleet shapes can never share a pooled session or a quota count. It
// is derived where it is needed rather than stored on the job, so the
// finished jobs kept until their TTL do not each hold a copy.
func (s JobSpec) fleetKey() string {
	s.Scenario.Horizon = 0
	s.EngineWorkers = 0
	s.IncludeMeetings = false
	s.TimeoutMs = 0
	return s.canonical()
}

// JobResult is the deterministic outcome of a completed job. Every
// field is a pure function of the spec; no timing, routing, or cache
// state leaks in.
type JobResult struct {
	Coverage scenario.Coverage
	MetFrac  float64
	// Meetings holds the first MaxMeetings meetings in canonical order
	// when the spec asked for them; Truncated reports whether the run
	// recorded more.
	Meetings  []simulator.Meeting `json:",omitempty"`
	Truncated bool                `json:",omitempty"`
}

// Job is one tracked simulation request.
type Job struct {
	ID   string
	Spec JobSpec

	// canc is the job's cancellation seam into the engine: DELETE and
	// the deadline timer fire it, the worker installs it on the session
	// before running. Always non-nil for jobs created by Submit.
	canc *simulator.Canceler
	// deadlined records that the canceler was fired by the deadline
	// timer (vs an explicit DELETE), for the error message.
	deadlined atomic.Bool

	mu     sync.Mutex
	status JobStatus
	err    string
	result *JobResult
	doneAt time.Time // when a terminal status landed; TTL eviction clock
	done   chan struct{}
}

// Snapshot returns the job's current status, error, and result. The
// result pointer is shared; callers must not mutate it.
func (j *Job) Snapshot() (JobStatus, string, *JobResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.err, j.result
}

// Wait blocks until the job reaches a terminal status.
func (j *Job) Wait() { <-j.done }

// CancelEngine fires the job's engine-level canceler without settling
// its status: a run in flight stops at its next block-window boundary
// and the worker reports the job canceled. The chaos harness injects
// cancellations through this; clients use Manager.Cancel (DELETE).
func (j *Job) CancelEngine() { j.canc.Cancel() }

// setRunning claims the job for a worker. It fails when the job was
// canceled while still queued: the worker then just skips it.
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	return true
}

// finish moves the job to a terminal status, reporting whether this
// call made the transition. Terminal states are sticky: a worker
// completing a run races DELETE's immediate cancel, and whichever
// lands first wins while the loser becomes a no-op. The winner must
// close done exactly once (see Manager.finishJob).
func (j *Job) finish(status JobStatus, res *JobResult, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalStatus(j.status) {
		return false
	}
	j.status = status
	j.result = res
	if err != nil {
		j.err = err.Error()
	}
	j.doneAt = time.Now()
	return true
}

// expired reports whether the job has sat in a terminal status for at
// least ttl as of now.
func (j *Job) expired(now time.Time, ttl time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return terminalStatus(j.status) && now.Sub(j.doneAt) >= ttl
}

// timeout resolves the job's effective deadline: the spec's TimeoutMs
// when set, else the server default (0 = none).
func (j *Job) timeout(def time.Duration) time.Duration {
	if j.Spec.TimeoutMs > 0 {
		return time.Duration(j.Spec.TimeoutMs) * time.Millisecond
	}
	return def
}

// Config parameterizes a Manager (and the Server wrapping it).
type Config struct {
	// Workers is the job worker pool size; ≤ 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of jobs queued behind the workers;
	// ≤ 0 means 1024. A full queue rejects submissions (503).
	QueueDepth int
	// SessionsPerWorker caps each worker's session pool; ≤ 0 means 8.
	// The coldest fleet is closed and evicted past the cap.
	SessionsPerWorker int
	// Cache is the table cache reported by stats and drain; nil means
	// the cache engines currently capture (simulator.TableCache). It
	// must be the cache engines actually use, or the pin numbers
	// describe the wrong cache (tests swapping caches via
	// simulator.SetTableCache pass the same cache here).
	Cache *tablecache.Cache
	// MaxScheduleSlots bounds the hop-table length /v1/schedule
	// returns; ≤ 0 means 65536.
	MaxScheduleSlots int
	// JobTTL bounds how long a terminal job stays queryable before the
	// sweeper evicts it from the jobs map (the map otherwise grows
	// forever under sustained load). 0 means 15 minutes; negative
	// disables eviction. Live (queued/running) jobs are never evicted.
	JobTTL time.Duration
	// JobTimeout is the default per-job deadline; 0 means none.
	// JobSpec.TimeoutMs overrides it per job.
	JobTimeout time.Duration
	// MaxPerFleet caps the live (queued or running) jobs per fleet
	// shape, so one misbehaving client hammering a single expensive
	// fleet cannot monopolize the queue; ≤ 0 means unlimited.
	MaxPerFleet int
	// PreRun, when set, runs on the worker goroutine immediately after
	// a job is claimed and before it executes. It is the deterministic
	// fault-injection seam the chaos tests use (stalls, panics,
	// cancellations); leave nil in production.
	PreRun func(*Job)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.SessionsPerWorker <= 0 {
		c.SessionsPerWorker = 8
	}
	if c.Cache == nil {
		c.Cache = simulator.TableCache()
	}
	if c.MaxScheduleSlots <= 0 {
		c.MaxScheduleSlots = 65536
	}
	if c.JobTTL == 0 {
		c.JobTTL = 15 * time.Minute
	}
	return c
}

// Manager runs jobs through its worker pool.
type Manager struct {
	cfg   Config
	queue chan *Job

	mu          sync.Mutex
	jobs        map[string]*Job
	fleetActive map[string]int // live (non-terminal) jobs per fleet shape
	closed      bool

	// lateAbort flips when the drain deadline passes: workers then
	// mark still-queued jobs aborted instead of running them.
	lateAbort atomic.Bool
	wg        sync.WaitGroup
	stopSweep chan struct{}
	sweepDone chan struct{}

	sessionsOpened atomic.Int64
	sessionsReused atomic.Int64
	jobsEvicted    atomic.Int64
	quotaRejected  atomic.Int64
	shed           atomic.Int64
}

// NewManager starts the worker pool.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:         cfg,
		queue:       make(chan *Job, cfg.QueueDepth),
		jobs:        make(map[string]*Job),
		fleetActive: make(map[string]int),
		stopSweep:   make(chan struct{}),
		sweepDone:   make(chan struct{}),
	}
	m.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go m.worker()
	}
	if cfg.JobTTL > 0 {
		go m.sweeper()
	} else {
		close(m.sweepDone)
	}
	return m
}

// ErrQueueFull rejects submissions when the queue is at capacity.
var ErrQueueFull = fmt.Errorf("serve: job queue full")

// ErrDraining rejects submissions after Drain began.
var ErrDraining = fmt.Errorf("serve: draining, not accepting jobs")

// ErrQuotaExceeded rejects submissions past the per-fleet-shape cap.
var ErrQuotaExceeded = fmt.Errorf("serve: per-fleet job quota exceeded")

// ErrJobConflict rejects a spec whose job id is already held by a job
// with a different spec: a hash collision, never served as the other
// job.
var ErrJobConflict = fmt.Errorf("serve: job id collides with a different spec")

// errCanceled is the error recorded for explicitly canceled jobs.
var errCanceled = fmt.Errorf("job canceled")

// Submit validates and enqueues a job, returning the tracked Job and
// whether this call created it. Resubmitting an identical spec returns
// the existing job in whatever state it is (idempotent by content); a
// different spec whose id collides with a tracked job's gets
// ErrJobConflict.
func (m *Manager) Submit(spec JobSpec) (job *Job, created bool, err error) {
	spec.normalize()
	if err := spec.validate(); err != nil {
		return nil, false, err
	}
	key := spec.canonical()
	id := jobID(key)
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		if j.Spec.canonical() != key {
			return nil, false, ErrJobConflict
		}
		return j, false, nil
	}
	if m.closed {
		return nil, false, ErrDraining
	}
	fleet := spec.fleetKey()
	if m.cfg.MaxPerFleet > 0 && m.fleetActive[fleet] >= m.cfg.MaxPerFleet {
		m.quotaRejected.Add(1)
		return nil, false, ErrQuotaExceeded
	}
	j := &Job{
		ID: id, Spec: spec,
		canc:   &simulator.Canceler{},
		status: StatusQueued, done: make(chan struct{}),
	}
	select {
	case m.queue <- j:
	default:
		m.shed.Add(1)
		return nil, false, ErrQueueFull
	}
	m.jobs[id] = j
	m.fleetActive[fleet]++
	return j, true, nil
}

// finishJob moves a job to a terminal status and, when this call made
// the transition, releases its slot in the per-fleet quota. Every
// finish in the manager goes through here so the quota cannot leak.
func (m *Manager) finishJob(j *Job, status JobStatus, res *JobResult, err error) {
	if !j.finish(status, res, err) {
		return
	}
	fleet := j.Spec.fleetKey()
	m.mu.Lock()
	if m.fleetActive[fleet]--; m.fleetActive[fleet] <= 0 {
		delete(m.fleetActive, fleet)
	}
	m.mu.Unlock()
	// Waiters wake only once the quota slot is free, so one that
	// resubmits the same fleet shape right away is admitted.
	close(j.done)
}

// Cancel stops the job with the given id. A queued job is finished
// canceled on the spot (the worker that later dequeues it skips it); a
// running job has its canceler fired, stopping the engine at its next
// block-window boundary; a job already terminal is evicted from the
// jobs map instead (manual DELETE doubles as eviction). The returned
// job reflects the post-cancel state.
func (m *Manager) Cancel(id string) (*Job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	if status, _, _ := j.Snapshot(); terminalStatus(status) {
		m.mu.Lock()
		if _, still := m.jobs[id]; still {
			delete(m.jobs, id)
			m.jobsEvicted.Add(1)
		}
		m.mu.Unlock()
		return j, true
	}
	// Fire the engine seam first so a running job stops promptly, then
	// settle the status; if the worker's own finish wins the race the
	// job completes normally and this finish is a no-op.
	j.canc.Cancel()
	m.finishJob(j, StatusCanceled, nil, errCanceled)
	return j, true
}

// sweeper evicts expired terminal jobs every quarter-TTL until Drain.
func (m *Manager) sweeper() {
	defer close(m.sweepDone)
	tick := m.cfg.JobTTL / 4
	if tick < 100*time.Millisecond {
		tick = 100 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.stopSweep:
			return
		case now := <-t.C:
			m.evictExpired(now)
		}
	}
}

// evictExpired removes terminal jobs older than the TTL as of now,
// returning how many it evicted. Split from the sweeper goroutine so
// tests can drive the clock directly.
func (m *Manager) evictExpired(now time.Time) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for id, j := range m.jobs {
		if j.expired(now, m.cfg.JobTTL) {
			delete(m.jobs, id)
			n++
		}
	}
	m.jobsEvicted.Add(int64(n))
	return n
}

// Job returns the tracked job with the given id.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// worker drains the queue, owning a private session pool. The pool is
// closed (engines released) when the worker exits, so after Drain no
// worker holds a cache pin.
func (m *Manager) worker() {
	defer m.wg.Done()
	pool := newSessionPool(m.cfg.SessionsPerWorker)
	defer pool.close()
	for j := range m.queue {
		if m.lateAbort.Load() {
			m.finishJob(j, StatusAborted, nil, fmt.Errorf("drain deadline passed before the job started"))
			continue
		}
		m.runJob(pool, j)
	}
}

// runJob executes one job on the worker's session pool. A panic
// (schedule-contract violation in a hostile spec, or one injected by
// the chaos hook) fails the job rather than the daemon.
func (m *Manager) runJob(pool *sessionPool, j *Job) {
	if !j.setRunning() {
		// Canceled while queued: the cancel already settled the status.
		return
	}
	var fs *fleetSession
	defer func() {
		if r := recover(); r != nil {
			if fs != nil {
				// The pooled session outlives this job; never leave a
				// fired canceler installed for the next one.
				fs.sess.SetCanceler(nil)
			}
			m.finishJob(j, StatusFailed, nil, fmt.Errorf("job panicked: %v", r))
		}
	}()
	if hook := m.cfg.PreRun; hook != nil {
		hook(j)
	}
	if d := j.timeout(m.cfg.JobTimeout); d > 0 {
		timer := time.AfterFunc(d, func() {
			j.deadlined.Store(true)
			j.canc.Cancel()
		})
		defer timer.Stop()
	}
	sc := j.Spec.Scenario
	fleet := j.Spec.fleetKey()
	fs = pool.get(fleet)
	if fs == nil {
		build, err := scenario.BuilderFor(j.Spec.Alg, sc.N, sc.Seed)
		if err != nil {
			m.finishJob(j, StatusFailed, nil, err)
			return
		}
		fl, err := sc.Open(build)
		if err != nil {
			m.finishJob(j, StatusFailed, nil, err)
			return
		}
		fs = &fleetSession{fl: fl, sess: fl.Eng.Session()}
		if evicted := pool.put(fleet, fs); evicted != nil {
			evicted.fl.Close()
		}
		m.sessionsOpened.Add(1)
	} else {
		m.sessionsReused.Add(1)
	}
	fs.sess.SetCanceler(j.canc)
	// Every engine worker allocates its own scan scratch (a block ring
	// over the widest id span of the fleet's meetable pairs, and a live
	// list over its chunk of them), so a posted EngineWorkers past the
	// core count could exhaust the daemon's memory while adding no
	// speed. Results are identical at any worker
	// count, so the clamp changes no bytes, and the spec (and its job
	// id) stays as posted.
	workers := min(j.Spec.EngineWorkers, runtime.GOMAXPROCS(0))
	res := fs.sess.RunParallelEnv(sc.Horizon, workers, fs.fl.Env)
	fs.sess.SetCanceler(nil)
	if j.canc.Canceled() {
		// Drop the partial run state so the pooled session's next job
		// starts from a clean Result.
		fs.sess.Reset()
		why := errCanceled
		if j.deadlined.Load() {
			why = fmt.Errorf("job deadline exceeded after %v", j.timeout(m.cfg.JobTimeout))
		}
		m.finishJob(j, StatusCanceled, nil, why)
		return
	}
	cov := fs.fl.Summarize(res, sc.Horizon)
	out := &JobResult{Coverage: cov, MetFrac: cov.MetFrac()}
	if j.Spec.IncludeMeetings {
		ms := res.Meetings()
		if len(ms) > MaxMeetings {
			ms = ms[:MaxMeetings]
			out.Truncated = true
		}
		out.Meetings = ms
	}
	m.finishJob(j, StatusDone, out, nil)
}

// fleetSession is one worker's reusable run state for a fleet shape.
type fleetSession struct {
	fl   *scenario.Fleet
	sess *simulator.Session
	last int64 // pool LRU clock
}

// sessionPool is a worker-private LRU of fleet sessions. No locking:
// exactly one goroutine touches it.
type sessionPool struct {
	cap     int
	clock   int64
	entries map[string]*fleetSession
}

func newSessionPool(cap int) *sessionPool {
	return &sessionPool{cap: cap, entries: make(map[string]*fleetSession)}
}

func (p *sessionPool) get(key string) *fleetSession {
	fs := p.entries[key]
	if fs != nil {
		p.clock++
		fs.last = p.clock
	}
	return fs
}

// put inserts a session, returning the evicted coldest entry when the
// pool is over capacity (caller closes its fleet).
func (p *sessionPool) put(key string, fs *fleetSession) (evicted *fleetSession) {
	p.clock++
	fs.last = p.clock
	p.entries[key] = fs
	if len(p.entries) <= p.cap {
		return nil
	}
	coldKey := ""
	for k, e := range p.entries {
		if coldKey == "" || e.last < p.entries[coldKey].last {
			coldKey = k
		}
	}
	evicted = p.entries[coldKey]
	delete(p.entries, coldKey)
	return evicted
}

// close releases every pooled fleet's cache pins.
func (p *sessionPool) close() {
	for k, fs := range p.entries {
		fs.fl.Close()
		delete(p.entries, k)
	}
}

// DrainReport summarizes a completed drain.
type DrainReport struct {
	Done     int
	Failed   int
	Aborted  int
	Canceled int
	// Pinned is the cache's outstanding-pin entry count after every
	// worker released its engines; nonzero means a pin leak.
	Pinned int
}

// Drain stops accepting jobs, lets in-flight jobs finish, and gives
// queued jobs until the timeout to start; past it, still-queued jobs
// are marked aborted (reported, never dropped). It blocks until every
// worker has exited and released its session pool, then snapshots the
// cache's pin count — zero, unless something leaked. Drain is
// idempotent; a zero timeout aborts all still-queued jobs immediately.
func (m *Manager) Drain(timeout time.Duration) DrainReport {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
		close(m.stopSweep)
	}
	m.mu.Unlock()
	<-m.sweepDone
	var timer *time.Timer
	if timeout > 0 {
		timer = time.AfterFunc(timeout, func() { m.lateAbort.Store(true) })
	} else {
		m.lateAbort.Store(true)
	}
	m.wg.Wait()
	if timer != nil {
		timer.Stop()
	}
	rep := DrainReport{}
	m.mu.Lock()
	for _, j := range m.jobs {
		switch status, _, _ := j.Snapshot(); status {
		case StatusDone:
			rep.Done++
		case StatusFailed:
			rep.Failed++
		case StatusAborted:
			rep.Aborted++
		case StatusCanceled:
			rep.Canceled++
		}
	}
	m.mu.Unlock()
	rep.Pinned = m.cfg.Cache.Stats().Pinned
	return rep
}

// JobCounts is the per-status job census for stats.
type JobCounts struct {
	Queued, Running, Done, Failed, Aborted, Canceled int
}

// ManagerStats is the manager's point-in-time observability snapshot.
type ManagerStats struct {
	Workers        int
	QueueDepth     int
	QueueCapacity  int
	Jobs           JobCounts
	SessionsOpened int64
	SessionsReused int64
	// JobsEvicted counts terminal jobs removed from the jobs map (TTL
	// sweeps and manual DELETEs of finished jobs).
	JobsEvicted int64
	// QuotaRejected counts submissions refused by the per-fleet quota.
	QuotaRejected int64
	// Shed counts submissions refused because the queue was full.
	Shed int64
}

// Stats snapshots the manager.
func (m *Manager) Stats() ManagerStats {
	st := ManagerStats{
		Workers:        m.cfg.Workers,
		QueueDepth:     len(m.queue),
		QueueCapacity:  m.cfg.QueueDepth,
		SessionsOpened: m.sessionsOpened.Load(),
		SessionsReused: m.sessionsReused.Load(),
		JobsEvicted:    m.jobsEvicted.Load(),
		QuotaRejected:  m.quotaRejected.Load(),
		Shed:           m.shed.Load(),
	}
	m.mu.Lock()
	for _, j := range m.jobs {
		switch status, _, _ := j.Snapshot(); status {
		case StatusQueued:
			st.Jobs.Queued++
		case StatusRunning:
			st.Jobs.Running++
		case StatusDone:
			st.Jobs.Done++
		case StatusFailed:
			st.Jobs.Failed++
		case StatusAborted:
			st.Jobs.Aborted++
		case StatusCanceled:
			st.Jobs.Canceled++
		}
	}
	m.mu.Unlock()
	return st
}
